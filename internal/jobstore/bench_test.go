package jobstore

import (
	"fmt"
	"testing"
	"time"

	"vasched/internal/tenant"
)

func benchSpec(i int) Spec {
	return Spec{
		Tenant:     "bench-tenant",
		Lane:       tenant.Lane(i % tenant.NumLanes),
		Experiment: "ext-cluster",
		Scale:      "quick",
		Workers:    4,
	}
}

// BenchmarkWALAppend measures the submit hot path: encode + append
// (+rotation) of one WAL record, no fsync.
func BenchmarkWALAppend(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), Now: time.Now})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(benchSpec(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppendFsync is the durable variant: one fsync per
// record, the worst-case submit latency floor.
func BenchmarkWALAppendFsync(b *testing.B) {
	s, err := Open(Options{Dir: b.TempDir(), Fsync: true, Now: time.Now})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(benchSpec(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures boot-time recovery of a 2000-job log with a
// full lifecycle per job (submit + claim + complete).
func BenchmarkReplay(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(Options{Dir: dir, Now: time.Now})
	if err != nil {
		b.Fatal(err)
	}
	epoch, _ := s.AcquireEpoch("bench")
	const jobs = 2000
	for i := 0; i < jobs; i++ {
		j, err := s.Submit(benchSpec(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Claim(j.ID, "bench", epoch); err != nil {
			b.Fatal(err)
		}
		result := []byte(fmt.Sprintf(`{"Checksum":"%032x"}`, i))
		if err := s.Complete(j.ID, "bench", epoch, StatusDone, "", "rendered report", result); err != nil {
			b.Fatal(err)
		}
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re, err := Open(Options{Dir: dir, Now: time.Now})
		if err != nil {
			b.Fatal(err)
		}
		if re.Len() != jobs {
			b.Fatalf("replayed %d jobs", re.Len())
		}
		re.Close()
	}
	b.ReportMetric(float64(jobs)*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkRecordCodec encodes and decodes one complete record with a
// 4 KiB result: the codec's share of a WAL append or replay, with no
// disk, so a BenchmarkWALAppend verdict can be told apart from the
// disk's noise.
func BenchmarkRecordCodec(b *testing.B) {
	rec := &Record{Kind: KindComplete, ID: 1234, Epoch: 3, Coord: "vaschedd-4242", Unix: 1_700_000_000_000_000_000,
		Status: statusCodeDone, Rendered: []byte("Figure 4 report"), Result: make([]byte, 4<<10)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := EncodeRecord(rec)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeRecord(frame); err != nil {
			b.Fatal(err)
		}
	}
}
