package jobstore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vasched/internal/tenant"
)

// bigSpec pads submissions so a few of them cross small segment
// limits.
func bigSpec(i int) Spec {
	return Spec{
		Tenant:     "tenant-" + strings.Repeat("x", 64),
		Lane:       tenant.LaneBatch,
		Experiment: "experiment-" + strings.Repeat("y", 64),
		Scale:      "quick",
		Workers:    i,
	}
}

// TestSegmentRotation forces tiny segments and checks the log spans
// multiple files, every record survives replay, and the writer
// continues on the last segment.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SegmentBytes: 512, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := s.Submit(bigSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation, got %d segment(s)", len(segs))
	}

	re, err := Open(Options{Dir: dir, SegmentBytes: 512, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != n {
		t.Fatalf("replayed %d jobs, want %d", re.Len(), n)
	}
	if st := re.Stats(); st.Segments != len(segs) || st.Records != n {
		t.Fatalf("stats = %+v", st)
	}
	// Appends continue without disturbing the replayed tail.
	if j, err := re.Submit(bigSpec(99)); err != nil || j.ID != n+1 {
		t.Fatalf("post-rotation submit = %+v, %v", j, err)
	}
}

// TestTornTailRecovered truncates the final segment mid-record — the
// crash-during-append signature — and checks replay drops exactly the
// torn frame, truncates the file, and keeps everything before it.
func TestTornTailRecovered(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(bigSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	seg := segPath(dir, 1)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatalf("torn tail must be recoverable: %v", err)
	}
	defer re.Close()
	st := re.Stats()
	if re.Len() != 2 || st.Records != 2 || st.TornBytes == 0 {
		t.Fatalf("len=%d stats=%+v", re.Len(), st)
	}
	if !st.CrashRecovered {
		t.Fatal("torn tail not flagged as crash recovery")
	}
	// The torn bytes are gone from disk: a further append and replay
	// yields a clean log.
	if _, err := re.Submit(bigSpec(9)); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := Open(Options{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Len() != 3 || re2.Stats().TornBytes != 0 {
		t.Fatalf("after repair: len=%d stats=%+v", re2.Len(), re2.Stats())
	}
}

// TestCorruptionFailsLoudly flips one byte mid-log: replay must fail
// with ErrCorrupt and name the offending file, never load a partial
// state.
func TestCorruptionFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(bigSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	seg := segPath(dir, 1)
	data, _ := os.ReadFile(seg)
	data[len(data)/3] ^= 0x40 // inside an early record, not the tail
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(Options{Dir: dir, Now: testClock()})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt log opened: %v", err)
	}
	if !strings.Contains(err.Error(), filepath.Base(seg)) {
		t.Fatalf("error does not name the segment: %v", err)
	}
}

// TestTornMiddleSegmentFails: truncation anywhere but the final
// segment is corruption, not crash residue.
func TestTornMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, SegmentBytes: 512, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := s.Submit(bigSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	segs, _ := listSegments(dir)
	if len(segs) < 2 {
		t.Fatalf("need rotation for this test, got %d segments", len(segs))
	}
	data, _ := os.ReadFile(segs[0])
	if err := os.WriteFile(segs[0], data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Now: testClock()}); err == nil {
		t.Fatal("torn non-final segment opened")
	}
}

// TestAlienFileRejected: unexpected wal-*.log names fail fast instead
// of being silently skipped or misordered.
func TestAlienFileRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-junk.log"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Now: testClock()}); err == nil {
		t.Fatal("alien wal file accepted")
	}
}

func mustEncode(t testing.TB, r *Record) []byte {
	t.Helper()
	b, err := EncodeRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecordRoundTrip pins the canonical encoding for every record
// kind, including empty and maximal-ish field mixes.
func TestRecordRoundTrip(t *testing.T) {
	recs := []*Record{
		{Kind: KindSubmit, ID: 1, Unix: 12345, Tenant: "acme", Lane: tenant.LaneControl, Experiment: "fig4", Scale: "quick", Workers: 8},
		{Kind: KindSubmit, ID: 2, Unix: 12346, Tenant: "acme", Lane: tenant.LaneBatch, Experiment: "ext-adapt", Scale: "default", Params: []byte(`{"metric":"tput","exact":true}`)},
		{Kind: KindClaim, ID: 1, Epoch: 3, Coord: "pod-1", Unix: -1},
		{Kind: KindComplete, ID: 1, Epoch: 3, Coord: "pod-1", Status: statusCodeDone, Rendered: []byte("report"), Result: []byte(`{"a":1}`)},
		{Kind: KindComplete, ID: 2, Epoch: 3, Coord: "pod-1", Status: statusCodeFailed, Error: "boom"},
		{Kind: KindEpoch, Epoch: 9, Coord: "pod-2"},
		{Kind: KindShutdown, Epoch: 9, Coord: "pod-2", Unix: 1 << 60},
	}
	for _, r := range recs {
		enc := mustEncode(t, r)
		got, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("%+v: %v", r, err)
		}
		if !bytes.Equal(mustEncode(t, got), enc) {
			t.Fatalf("non-canonical round trip for %+v", r)
		}
	}
}

// TestRecordDecodeRejects pins the loud-failure contract at the codec
// level: truncation, bit flips, bad magic, and oversized length fields
// all error.
func TestRecordDecodeRejects(t *testing.T) {
	good := mustEncode(t, &Record{Kind: KindSubmit, ID: 7, Tenant: "t", Experiment: "fig4", Scale: "quick"})
	// Every strict prefix fails.
	for n := 0; n < len(good); n++ {
		if _, err := DecodeRecord(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Any single-bit flip fails.
	for i := 0; i < len(good); i++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[i] ^= 1 << bit
			if _, err := DecodeRecord(bad); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", i, bit)
			}
		}
	}
	// Trailing garbage fails.
	if _, err := DecodeRecord(append(append([]byte(nil), good...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// A huge declared payload length fails before allocating.
	huge := []byte(recMagic)
	huge = append(huge, 0xff, 0xff, 0xff, 0x7f)
	if _, err := DecodeRecord(huge); err == nil {
		t.Fatal("huge payload length accepted")
	}
}

// TestFsyncOption just exercises the fsync path end to end.
func TestFsyncOption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Fsync: true, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(bigSpec(0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("len = %d", re.Len())
	}
}

// testClockAt anchors determinism checks: two stores opened over the
// same log see identical timestamps because times come from the log,
// not the clock.
func TestReplayTimesComeFromLog(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(Options{Dir: dir, Now: testClock()})
	j, _ := s.Submit(bigSpec(1))
	s.Close()
	re, _ := Open(Options{Dir: dir, Now: func() time.Time { return time.Unix(0, 0) }})
	defer re.Close()
	g, _ := re.Get(j.ID)
	if !g.Submitted.Equal(j.Submitted) {
		t.Fatalf("replayed Submitted %v != original %v", g.Submitted, j.Submitted)
	}
}

// walGolden is one frame of each record kind as a store writes it: the
// epoch, submit, claim, complete and shutdown of one job. Logs written
// by earlier builds must keep replaying, so these bytes never change.
var walGolden = []string{
	// epoch 1 by pod-a
	"766a6c323a00000004000000000000000001000000000000002a002a36fe9c97170500706f642d61000000000000000000000000000000000000000000000000000076567c276faa46ee",
	// submit job 1: acme, batch lane, ext-adapt, quick, 2 workers, params
	"766a6c325600000001010000000000000000000000000000002a002a36fe9c97170000040061636d650209006578742d61646170740500717569636b020000000f0000007b2272656c5f6369223a302e30327d00000000000000000000009ad89a7ef356aa13",
	// claim job 1 by pod-a under epoch 1
	"766a6c323a00000002010000000000000001000000000000002a002a36fe9c97170500706f642d6100000000000000000000000000000000000000000000000000008cdaca9b834c298b",
	// complete job 1 as failed: error, rendered report and result
	"766a6c324b00000003010000000000000001000000000000002a002a36fe9c97170500706f642d61000000000000000000000000000000020400626f6f6d060000007265706f7274070000007b2261223a317dd1970af128770d35",
	// clean shutdown of pod-a under epoch 1
	"766a6c323a00000005000000000000000001000000000000002a002a36fe9c97170500706f642d610000000000000000000000000000000000000000000000000000ae0856ec11ecab97",
}

// TestWALGoldenBytes pins the vjl2 frames byte for byte on both sides:
// the store writes exactly walGolden, and a log holding walGolden
// replays to the job it describes.
func TestWALGoldenBytes(t *testing.T) {
	clock := func() time.Time { return time.Unix(1_700_000_000, 42) }
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := s.AcquireEpoch("pod-a")
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(Spec{Tenant: "acme", Lane: tenant.LaneBatch, Experiment: "ext-adapt", Scale: "quick",
		Workers: 2, Params: []byte(`{"rel_ci":0.02}`)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Claim(j.ID, "pod-a", epoch); err != nil {
		t.Fatal(err)
	}
	if err := s.Complete(j.ID, "pod-a", epoch, StatusFailed, "boom", "report", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkShutdown("pod-a", epoch); err != nil {
		t.Fatal(err)
	}
	s.Close()
	got, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for _, h := range walGolden {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, b...)
	}
	if !bytes.Equal(got, want) {
		for off := 0; off < len(got); {
			_, n, err := ReadRecord(got[off:])
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%x", got[off:off+n])
			off += n
		}
		t.Fatal("store wrote frames other than walGolden")
	}

	dir2 := t.TempDir()
	if err := os.WriteFile(segPath(dir2, 1), want, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir2, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	g, ok := re.Get(j.ID)
	if !ok || g.Status != StatusFailed || g.Error != "boom" || g.Rendered != "report" || string(g.Result) != `{"a":1}` ||
		string(g.Params) != `{"rel_ci":0.02}` || g.Tenant != "acme" || g.Coord != "pod-a" || re.Epoch() != epoch {
		t.Fatalf("golden log replayed to %+v (epoch %d)", g, re.Epoch())
	}
	if st := re.Stats(); st.Records != 5 || st.CrashRecovered {
		t.Fatalf("golden log replay stats = %+v", st)
	}
}
