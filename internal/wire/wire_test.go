package wire

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math"
	"strings"
	"testing"
)

var errTest = errors.New("test: corrupt")

// TestRoundTrip writes one field of each form and reads them back.
func TestRoundTrip(t *testing.T) {
	w := Writer{}
	w.Raw("vtt1")
	w.U8(7)
	w.U32(1 << 31)
	w.U64(math.MaxUint64 - 1)
	w.Str("kernel", 16)
	w.Str("", 16)
	w.Blob([]byte{1, 2, 3}, 16)
	w.Blob(nil, 16)
	w.Count(2, 2)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(w.Buf, errTest)
	r.Magic("vtt1")
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U32(); v != 1<<31 {
		t.Fatalf("U32 = %d", v)
	}
	if v := r.U64(); v != math.MaxUint64-1 {
		t.Fatalf("U64 = %d", v)
	}
	if s := r.Str(16); s != "kernel" {
		t.Fatalf("Str = %q", s)
	}
	if s := r.Str(16); s != "" {
		t.Fatalf("empty Str = %q", s)
	}
	if b := r.Blob(16); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("Blob = %v", b)
	}
	if b := r.Blob(16); b == nil || len(b) != 0 {
		t.Fatalf("empty Blob = %#v, want a non-nil empty slice", b)
	}
	// Each of the two counted items takes at least 0 bytes here.
	if n := r.Count(2, 0); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterRefusesOverCap: every field the Reader would refuse is
// refused by the Writer, and the first refusal latches.
func TestWriterRefusesOverCap(t *testing.T) {
	cases := map[string]func(w *Writer){
		"string over max":   func(w *Writer) { w.Str("12345", 4) },
		"string over u16":   func(w *Writer) { w.Str(strings.Repeat("x", 1<<16), 1<<20) },
		"blob over max":     func(w *Writer) { w.Blob(make([]byte, 5), 4) },
		"count over max":    func(w *Writer) { w.Count(5, 4) },
		"first one latches": func(w *Writer) { w.Str("12345", 4); w.Str("ok", 4) },
	}
	for name, write := range cases {
		w := Writer{}
		write(&w)
		if !errors.Is(w.Err(), ErrTooLong) {
			t.Errorf("%s: err = %v, want ErrTooLong", name, w.Err())
		}
	}
	w := Writer{}
	w.Str(strings.Repeat("x", math.MaxUint16), 1<<20)
	if err := w.Err(); err != nil {
		t.Fatalf("a string of exactly MaxUint16 bytes: %v", err)
	}
	if r := NewReader(w.Buf, errTest); len(r.Str(1<<20)) != math.MaxUint16 || r.Done() != nil {
		t.Fatal("a string of exactly MaxUint16 bytes does not read back")
	}
}

// TestReaderRejects: each malformation fails with the caller's sentinel,
// reads after a failure return zero values, and no length is trusted
// past the bytes left.
func TestReaderRejects(t *testing.T) {
	w := Writer{}
	w.Raw("vtt1")
	w.Str("abcdef", 16)
	w.Blob([]byte("payload"), 16)
	good := w.Buf
	read := func(b []byte, strMax, blobMax int) error {
		r := NewReader(b, errTest)
		r.Magic("vtt1")
		r.Str(strMax)
		r.Blob(blobMax)
		return r.Done()
	}
	if err := read(good, 16, 16); err != nil {
		t.Fatal(err)
	}
	bad := map[string]error{
		"string over cap": read(good, 5, 16),
		"blob over cap":   read(good, 16, 6),
		"trailing byte":   read(append(append([]byte{}, good...), 0), 16, 16),
		"bad magic":       read(append([]byte("vtt2"), good[4:]...), 16, 16),
	}
	for n := 0; n < len(good); n++ {
		if err := read(good[:n], 16, 16); !errors.Is(err, errTest) {
			t.Fatalf("truncation to %d bytes: %v", n, err)
		}
	}
	for name, err := range bad {
		if !errors.Is(err, errTest) {
			t.Errorf("%s: err = %v, want the caller's sentinel", name, err)
		}
	}

	// A count whose items cannot fit in what is left fails before the
	// caller allocates for it.
	w = Writer{}
	w.Count(1000, 1<<20)
	w.U32(0)
	r := NewReader(w.Buf, errTest)
	if n := r.Count(1<<20, 4); n != 0 || !errors.Is(r.Err(), errTest) {
		t.Fatalf("overrunning count = %d, err %v", n, r.Err())
	}
	if r.U64() != 0 || r.Str(16) != "" || r.Blob(16) != nil || r.Take(0) != nil {
		t.Fatal("a read after a failure returned data")
	}
	r = NewReader(w.Buf, errTest)
	if r.Count(999, 0); !errors.Is(r.Err(), errTest) {
		t.Fatal("count over its max accepted")
	}
	r = NewReader(nil, errTest)
	if r.Take(-1) != nil || !errors.Is(r.Err(), errTest) {
		t.Fatal("negative take accepted")
	}
	r = NewReader([]byte{1}, errTest)
	r.Failf("enum %d", 9)
	r.Failf("second")
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "enum 9") {
		t.Fatalf("Failf did not latch its first failure: %v", err)
	}
}

// TestChecksum: the trailer is hash/fnv's FNV-64a in the big-endian
// bytes its Sum appends, and SplitSum refuses any damage.
func TestChecksum(t *testing.T) {
	body := []byte("vjl2 and friends")
	h := fnv.New64a()
	h.Write(body)
	want := h.Sum(append([]byte{}, body...))
	got := AppendSum(append([]byte{}, body...))
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendSum = %x, want %x", got, want)
	}
	back, err := SplitSum(got, errTest)
	if err != nil || !bytes.Equal(back, body) {
		t.Fatalf("SplitSum = %q, %v", back, err)
	}
	for i := range got {
		bad := append([]byte{}, got...)
		bad[i] ^= 0x10
		if _, err := SplitSum(bad, errTest); !errors.Is(err, errTest) {
			t.Fatalf("flip at %d: %v", i, err)
		}
	}
	if _, err := SplitSum(got[:SumLen-1], errTest); !errors.Is(err, errTest) {
		t.Fatalf("short input: %v", err)
	}
}
