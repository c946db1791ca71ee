// Package wire holds what the repository's binary formats share: the
// WAL records of internal/jobstore, the shard messages of
// internal/cluster and the die blobs of internal/diecache.
//
// Fields are little-endian. Strings carry a u16 length and blobs a u32
// length, and each has a cap: a Writer refuses any string, blob or
// count over the cap the matching Reader enforces, so nothing written
// can fail to read back. A Reader latches its first error and bounds
// every length by the bytes left, so malformed input can neither panic
// nor make it allocate more than the input's own size. Every format ends
// in the FNV-64a checksum of the bytes before it, as the big-endian
// bytes hash.Hash64.Sum appends.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
)

// SumLen is the length of the checksum trailer.
const SumLen = 8

// ErrTooLong is the Writer's error for a string, blob or count over its
// cap.
var ErrTooLong = errors.New("wire: field over its cap")

// Writer appends fields to Buf. Its first over-cap field latches an
// error, which Err reports; Buf is not to be used after that.
type Writer struct {
	Buf []byte
	err error
}

// Err returns the first over-cap field's error, or nil.
func (w *Writer) Err() error { return w.err }

// fits reports whether n is at most max, and latches ErrTooLong if not.
func (w *Writer) fits(what string, n, max int) bool {
	if n > max && w.err == nil {
		w.err = fmt.Errorf("%w: %s of %d (max %d)", ErrTooLong, what, n, max)
	}
	return n <= max
}

// Raw appends s as it is, with no length: a format's magic.
func (w *Writer) Raw(s string) { w.Buf = append(w.Buf, s...) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.Buf = append(w.Buf, v) }

// U32 appends v.
func (w *Writer) U32(v uint32) { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }

// U64 appends v.
func (w *Writer) U64(v uint64) { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }

// Str appends s with a u16 length. A string longer than max, or than a
// u16 can count, latches ErrTooLong.
func (w *Writer) Str(s string, max int) {
	if w.fits("string", len(s), min(max, math.MaxUint16)) {
		w.Buf = binary.LittleEndian.AppendUint16(w.Buf, uint16(len(s)))
		w.Buf = append(w.Buf, s...)
	}
}

// Blob appends b with a u32 length. A blob longer than max latches
// ErrTooLong.
func (w *Writer) Blob(b []byte, max int) {
	if w.fits("blob", len(b), max) {
		w.U32(uint32(len(b)))
		w.Buf = append(w.Buf, b...)
	}
}

// Count appends n, the number of items that follow, as a u32. A count
// over max latches ErrTooLong.
func (w *Writer) Count(n, max int) {
	if w.fits("count", n, max) {
		w.U32(uint32(n))
	}
}

// Reader is a bounds-checked cursor over a payload. Its first failure
// latches: every later read returns a zero value, and Err reports the
// failure wrapped in the sentinel the Reader was made with.
type Reader struct {
	buf     []byte
	off     int
	err     error
	corrupt error
}

// NewReader returns a Reader over buf whose errors wrap corrupt, the
// calling package's own sentinel.
func NewReader(buf []byte, corrupt error) Reader {
	return Reader{buf: buf, corrupt: corrupt}
}

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Failf latches a failure found by the caller, such as an enum out of
// range, unless one is latched already.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: "+format, append([]any{r.corrupt}, args...)...)
	}
}

// Left returns the number of unread bytes.
func (r *Reader) Left() int { return len(r.buf) - r.off }

// Take returns the next n bytes, which alias the payload, or nil after
// a failure or when fewer than n are left.
func (r *Reader) Take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Left() {
		r.Failf("truncated at offset %d (want %d of %d bytes)", r.off, n, len(r.buf))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Magic reads len(m) bytes and fails unless they are m.
func (r *Reader) Magic(m string) {
	if b := r.Take(len(m)); b != nil && string(b) != m {
		r.Failf("bad magic %q, want %q", b, m)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if b := r.Take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) u16() uint16 {
	if b := r.Take(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a u32.
func (r *Reader) U32() uint32 {
	if b := r.Take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a u64.
func (r *Reader) U64() uint64 {
	if b := r.Take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Str reads a u16-length string of at most max bytes.
func (r *Reader) Str(max int) string {
	n := int(r.u16())
	if n > max {
		r.Failf("string length %d (max %d)", n, max)
		return ""
	}
	return string(r.Take(n))
}

// Blob reads a u32-length blob of at most max bytes into a fresh slice.
func (r *Reader) Blob(max int) []byte {
	n := int(r.U32())
	if n > max {
		r.Failf("blob length %d (max %d)", n, max)
		return nil
	}
	return bytes.Clone(r.Take(n))
}

// Count reads a u32 item count of at most max items, each of which
// takes at least size bytes of what is left, so a caller may allocate
// for the count.
func (r *Reader) Count(max, size int) int {
	n := int(r.U32())
	if r.err == nil && (n > max || n*size > r.Left()) {
		r.Failf("count %d overruns the payload (max %d)", n, max)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Done fails on any unread bytes and returns the first failure.
func (r *Reader) Done() error {
	if r.err == nil && r.Left() != 0 {
		r.Failf("%d trailing bytes", r.Left())
	}
	return r.err
}

// AppendSum appends the FNV-64a checksum of buf to buf.
func AppendSum(buf []byte) []byte {
	return binary.BigEndian.AppendUint64(buf, sum(buf))
}

// SplitSum checks buf's trailing checksum and returns the bytes it
// covers. Failures wrap corrupt.
func SplitSum(buf []byte, corrupt error) ([]byte, error) {
	if len(buf) < SumLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than a checksum", corrupt, len(buf))
	}
	body := buf[:len(buf)-SumLen]
	if binary.BigEndian.Uint64(buf[len(body):]) != sum(body) {
		return nil, fmt.Errorf("%w: checksum mismatch", corrupt)
	}
	return body, nil
}

func sum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}
