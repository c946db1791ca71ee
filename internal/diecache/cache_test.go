package diecache

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vasched/internal/varmodel"
	"vasched/internal/wire"
)

// testMaps fabricates a small, recognisable DieMaps whose cell values
// encode (seed, index) so cross-key mixups are detectable.
func testMaps(seed int64, idx int) *varmodel.DieMaps {
	const rows, cols = 4, 4
	mk := func(off float64) []float64 {
		out := make([]float64, rows*cols)
		for i := range out {
			out[i] = off + float64(seed)*1000 + float64(idx)*10 + float64(i)
		}
		return out
	}
	return &varmodel.DieMaps{
		VthSys:       fieldFrom(rows, cols, mk(0.25)),
		LeffSys:      fieldFrom(rows, cols, mk(0.75)),
		VthSigmaRan:  0.012,
		LeffSigmaRan: 0.034,
		Seed:         seed*1_000_003 + int64(idx),
	}
}

// genFunc is a Source whose dies come from a test closure; a die read
// back from a blob gets the zero Config, which testMaps' dies carry too.
type genFunc func() (*varmodel.DieMaps, error)

func (g genFunc) Config() varmodel.Config                   { return varmodel.Config{} }
func (g genFunc) Die(int64, int) (*varmodel.DieMaps, error) { return g() }

// identity is the trivial build step used where the test only cares
// about the caching of the generated maps.
func identity(m *varmodel.DieMaps) (any, error) { return m, nil }

func mustGet(t *testing.T, c *Cache, key Key, gen func() (*varmodel.DieMaps, error)) *varmodel.DieMaps {
	t.Helper()
	v, err := c.Get(context.Background(), key, genFunc(gen), identity)
	if err != nil {
		t.Fatal(err)
	}
	return v.(*varmodel.DieMaps)
}

// TestCacheSingleFlight: many concurrent Gets for one cold key must
// collapse into exactly one generation, and all callers must receive the
// one built value.
func TestCacheSingleFlight(t *testing.T) {
	c := New(8, "")
	key := Key{ConfigHash: 1, BatchSeed: 2, Die: 3}
	var gens atomic.Int64
	release := make(chan struct{})
	gen := func() (*varmodel.DieMaps, error) {
		gens.Add(1)
		<-release // hold the fill open until every waiter has queued
		return testMaps(2, 3), nil
	}
	const callers = 16
	results := make([]any, callers)
	var wg sync.WaitGroup
	var started sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		started.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			v, err := c.Get(context.Background(), key, genFunc(gen), identity)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	started.Wait()
	close(release)
	wg.Wait()
	if n := gens.Load(); n != 1 {
		t.Fatalf("%d concurrent Gets ran the generator %d times", callers, n)
	}
	for i, v := range results {
		if v != results[0] {
			t.Fatalf("caller %d received a different value", i)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
}

// TestCacheLRUEviction: the memory layer holds at most cap entries,
// evicting least-recently-used; a touched entry survives, an evicted one
// regenerates on return.
func TestCacheLRUEviction(t *testing.T) {
	c := New(2, "")
	gens := map[int]int{}
	get := func(die int) *varmodel.DieMaps {
		t.Helper()
		return mustGet(t, c, Key{BatchSeed: 1, Die: die}, func() (*varmodel.DieMaps, error) {
			gens[die]++
			return testMaps(1, die), nil
		})
	}
	get(0)
	get(1)
	get(0) // touch 0 so 1 becomes LRU
	get(2) // evicts 1
	if c.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", c.Len())
	}
	get(0) // must still be resident
	get(1) // must refill
	if gens[0] != 1 || gens[2] != 1 || gens[1] != 2 {
		t.Fatalf("generation counts = %v, want die0:1 die2:1 die1:2", gens)
	}
}

// TestCacheErrorsNotCached: a failed fill must not poison the key — the
// next Get retries, and a subsequent success is cached normally.
func TestCacheErrorsNotCached(t *testing.T) {
	c := New(4, "")
	key := Key{Die: 9}
	boom := errors.New("boom")
	fail := true
	calls := 0
	gen := func() (*varmodel.DieMaps, error) {
		calls++
		if fail {
			return nil, boom
		}
		return testMaps(0, 9), nil
	}
	if _, err := c.Get(context.Background(), key, genFunc(gen), identity); !errors.Is(err, boom) {
		t.Fatalf("Get = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed fill left %d entries resident", c.Len())
	}
	fail = false
	mustGet(t, c, key, gen)
	mustGet(t, c, key, gen)
	if calls != 2 {
		t.Fatalf("generator ran %d times, want 2 (fail, success, hit)", calls)
	}
	// Build errors are not cached either.
	calls = 0
	key2 := Key{Die: 10}
	badBuild := func(*varmodel.DieMaps) (any, error) { return nil, boom }
	if _, err := c.Get(context.Background(), key2, genFunc(gen), badBuild); !errors.Is(err, boom) {
		t.Fatalf("Get = %v, want boom from build", err)
	}
	mustGet(t, c, key2, gen)
	if calls != 2 {
		t.Fatalf("generator ran %d times across build failure and retry, want 2", calls)
	}
}

// TestCacheWaiterCancel: a waiter whose context dies while another
// goroutine fills must return ctx.Err without disturbing the fill.
func TestCacheWaiterCancel(t *testing.T) {
	c := New(4, "")
	key := Key{Die: 1}
	entered := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _ = c.Get(context.Background(), key, genFunc(func() (*varmodel.DieMaps, error) {
			close(entered)
			<-release
			return testMaps(0, 1), nil
		}), identity)
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Get(ctx, key, nil, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	close(release)
	// The fill completed despite the cancelled waiter; the entry serves
	// without re-generating.
	m := mustGet(t, c, key, func() (*varmodel.DieMaps, error) {
		t.Fatal("generator re-ran after cancelled waiter")
		return nil, nil
	})
	if m.Seed != 1 {
		t.Fatalf("cached die seed = %d, want 1", m.Seed)
	}
}

// TestCacheDiskWarm: a second cache over the same directory must satisfy
// every key from blobs — zero generator invocations — with bit-identical
// maps.
func TestCacheDiskWarm(t *testing.T) {
	dir := t.TempDir()
	cold := New(8, dir)
	want := map[int]*varmodel.DieMaps{}
	for die := 0; die < 3; die++ {
		die := die
		want[die] = mustGet(t, cold, Key{ConfigHash: 5, Die: die}, func() (*varmodel.DieMaps, error) {
			return testMaps(5, die), nil
		})
	}
	st := cold.Stats()
	if st.BytesWritten == 0 || st.DiskHits != 0 {
		t.Fatalf("cold stats = %+v, want writes and no disk hits", st)
	}

	warm := New(8, dir)
	for die := 0; die < 3; die++ {
		got := mustGet(t, warm, Key{ConfigHash: 5, Die: die}, func() (*varmodel.DieMaps, error) {
			t.Fatalf("die %d regenerated despite a warm blob store", die)
			return nil, nil
		})
		w := want[die]
		if got.Seed != w.Seed || got.VthSigmaRan != w.VthSigmaRan || got.LeffSigmaRan != w.LeffSigmaRan {
			t.Fatalf("die %d scalars differ after disk round-trip", die)
		}
		for i := range w.VthSys.Data {
			if got.VthSys.Data[i] != w.VthSys.Data[i] || got.LeffSys.Data[i] != w.LeffSys.Data[i] {
				t.Fatalf("die %d maps differ after disk round-trip", die)
			}
		}
	}
	st = warm.Stats()
	if st.DiskHits != 3 || st.BytesRead == 0 || st.CorruptBlobs != 0 {
		t.Fatalf("warm stats = %+v, want 3 disk hits", st)
	}
}

// TestCacheCorruptBlobFallback: a damaged blob must be detected by
// checksum, counted, and silently-correctly regenerated — and the
// regeneration overwrites the bad blob so the next cache heals.
func TestCacheCorruptBlobFallback(t *testing.T) {
	dir := t.TempDir()
	key := Key{ConfigHash: 7, BatchSeed: 1, Die: 0}
	first := New(4, dir)
	mustGet(t, first, key, func() (*varmodel.DieMaps, error) { return testMaps(1, 0), nil })

	// Flip one payload byte: the checksum must catch it.
	path := blobPath(dir, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	second := New(4, dir)
	regens := 0
	got := mustGet(t, second, key, func() (*varmodel.DieMaps, error) {
		regens++
		return testMaps(1, 0), nil
	})
	if regens != 1 {
		t.Fatalf("corrupt blob triggered %d regenerations, want 1", regens)
	}
	if got.Seed != testMaps(1, 0).Seed {
		t.Fatal("regenerated die has wrong identity")
	}
	st := second.Stats()
	if st.CorruptBlobs != 1 || st.DiskHits != 0 || st.BytesWritten == 0 {
		t.Fatalf("stats after corruption = %+v, want 1 corrupt, 0 disk hits, a rewrite", st)
	}

	// The rewrite healed the store: a third cache disk-hits cleanly.
	third := New(4, dir)
	mustGet(t, third, key, func() (*varmodel.DieMaps, error) {
		t.Fatal("regenerated despite healed blob")
		return nil, nil
	})
	if st := third.Stats(); st.DiskHits != 1 || st.CorruptBlobs != 0 {
		t.Fatalf("healed-store stats = %+v, want 1 clean disk hit", st)
	}
}

// TestCacheConcurrentChurn hammers a small cache (eviction pressure, disk
// layer on, overlapping keys) from many goroutines. Under -race this is
// the cache's data-race certificate; in any mode every returned die must
// carry its own key's identity.
func TestCacheConcurrentChurn(t *testing.T) {
	c := New(3, t.TempDir())
	const workers, rounds, keys = 8, 40, 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				die := (w + r) % keys
				v, err := c.Get(context.Background(), Key{BatchSeed: 3, Die: die},
					genFunc(func() (*varmodel.DieMaps, error) { return testMaps(3, die), nil }),
					identity)
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := v.(*varmodel.DieMaps).Seed, int64(3*1_000_003+die); got != want {
					t.Errorf("die %d came back with seed %d, want %d", die, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 3 {
		t.Fatalf("cache grew to %d entries past its cap of 3", c.Len())
	}
	st := c.Stats()
	if st.Hits+st.Misses != workers*rounds {
		t.Fatalf("stats %+v do not account for %d lookups", st, workers*rounds)
	}
}

// TestBlobKeyMismatch: a blob renamed onto another key's path must be
// rejected by the key echo even though its checksum is intact.
func TestBlobKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	keyA := Key{ConfigHash: 1, BatchSeed: 2, Die: 3}
	keyB := Key{ConfigHash: 1, BatchSeed: 2, Die: 4}
	if _, err := saveBlob(dir, keyA, testMaps(2, 3)); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(blobPath(dir, keyA), blobPath(dir, keyB)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadBlob(dir, keyB, varmodel.Config{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("renamed blob load = %v, want ErrCorrupt", err)
	}
	// Missing files are a clean miss, not an error.
	if m, n, err := loadBlob(dir, Key{Die: 99}, varmodel.Config{}); m != nil || n != 0 || err != nil {
		t.Fatalf("missing blob = (%v, %d, %v), want (nil, 0, nil)", m, n, err)
	}
}

// TestBlobShapeCap: a header claiming an absurd map size must be rejected
// before any allocation is attempted.
func TestBlobShapeCap(t *testing.T) {
	key := Key{}
	maps := testMaps(0, 0)
	data := encodeBlob(key, maps)
	// The little-endian rows field lives right after magic + three u64
	// key words; its top byte makes rows ≈ 2^30. The checksum is sealed
	// again, so the shape check is what must fire.
	off := 4 + 8*3
	data[off+3] = 0x40
	data = wire.AppendSum(data[:len(data)-wire.SumLen])
	if _, err := decodeBlob(data, key, varmodel.Config{}); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "shape") {
		t.Fatalf("oversized shape accepted: %v", err)
	}
}

// TestCacheUnboundedAndSetDir covers cap<=0 (no eviction) and runtime
// blob-store enablement.
func TestCacheUnboundedAndSetDir(t *testing.T) {
	c := New(0, "")
	for die := 0; die < 32; die++ {
		die := die
		mustGet(t, c, Key{Die: die}, func() (*varmodel.DieMaps, error) { return testMaps(0, die), nil })
	}
	if c.Len() != 32 {
		t.Fatalf("unbounded cache holds %d entries, want 32", c.Len())
	}
	dir := t.TempDir()
	c.SetDir(dir)
	if c.Dir() != dir {
		t.Fatalf("Dir = %q, want %q", c.Dir(), dir)
	}
	mustGet(t, c, Key{Die: 100}, func() (*varmodel.DieMaps, error) { return testMaps(0, 100), nil })
	if st := c.Stats(); st.BytesWritten == 0 {
		t.Fatalf("stats %+v show no blob write after SetDir", st)
	}
}

// BenchmarkDieCacheHit measures the steady-state cost of the hot path: a
// resident key served from the memory layer. This is what every repeated
// experiment pays per die once the cache is warm, so it must stay in the
// tens-of-nanoseconds range — ~6 orders below generation.
func BenchmarkDieCacheHit(b *testing.B) {
	c := New(16, "")
	key := Key{ConfigHash: 42, BatchSeed: 7, Die: 0}
	maps := testMaps(7, 0)
	ctx := context.Background()
	if _, err := c.Get(ctx, key, genFunc(func() (*varmodel.DieMaps, error) { return maps, nil }), identity); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := c.Get(ctx, key, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if v != any(maps) {
			b.Fatal("hit returned a different value")
		}
	}
	if st := c.Stats(); st.Misses != 1 {
		b.Fatalf("benchmark loop missed: %+v", st)
	}
}

// BenchmarkDieCacheDiskHit measures a process-restart warm start: maps
// decoded from a checksummed blob instead of regenerated.
func BenchmarkDieCacheDiskHit(b *testing.B) {
	dir := b.TempDir()
	key := Key{ConfigHash: 42, BatchSeed: 7, Die: 0}
	cfg := varmodel.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 128, 128
	g, err := varmodel.NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	maps, err := g.Die(7, 0)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := saveBlob(dir, key, maps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, _, err := loadBlob(dir, key, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if m == nil {
			b.Fatal("blob vanished")
		}
	}
}
