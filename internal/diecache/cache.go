// Package diecache is the content-addressed cache in front of die
// generation. A die is a pure function of (model configuration,
// batchSeed, index), so a hash of the configuration plus the two seed
// coordinates fully identifies its maps. The cache layers an in-memory
// LRU of built values over an optional checksummed on-disk blob store of
// raw die maps, collapses concurrent fills for one key (single-flight),
// and counts hits, misses and bytes through internal/metrics.
package diecache

import (
	"container/list"
	"context"
	"fmt"
	"hash/fnv"
	"log"
	"sync"

	"vasched/internal/delay"
	"vasched/internal/grf"
	"vasched/internal/metrics"
	"vasched/internal/power"
	"vasched/internal/thermal"
	"vasched/internal/trace"
	"vasched/internal/varmodel"
)

// Key is the content address of one characterised die: the hash of
// every configuration input that shapes it (see ConfigHash), the batch
// it belongs to, and its index within the batch. Two Envs — or two
// processes, or two cluster workers — with equal keys hold
// bit-identical dies and may share entries at every cache layer.
type Key struct {
	ConfigHash uint64
	BatchSeed  int64
	Die        int
}

// ConfigHash returns the FNV-64a hash of the four model configurations
// that shape a die, printed with %#v: the first coordinate of a Key.
// %#v names every type and field and prints each float64 in its
// shortest exact form, so two tuples hash equal exactly when every field
// is equal (collisions aside), and renaming, reordering or adding a
// field changes every hash: schema drift strands old cache entries
// rather than aliasing them. The configs hold only numbers and structs
// of numbers; a pointer would print as an address, which
// TestConfigHashEqualsSemanticEquality refuses.
func ConfigHash(vc varmodel.Config, dc delay.Config, pm power.Model, tc thermal.Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v\n%#v\n%#v\n%#v", vc, dc, pm, tc)
	return h.Sum64()
}

// Source generates the die a key names; *varmodel.Generator is the one
// the experiments use. Its Config completes a die read back from a
// blob, which holds only the maps: the key's hash already covers the
// config.
type Source interface {
	Config() varmodel.Config
	Die(batchSeed int64, index int) (*varmodel.DieMaps, error)
}

// entry is a single-flight slot: the first requester fills, every
// concurrent requester for the same key waits on ready.
type entry struct {
	ready chan struct{}
	val   any
	err   error
	elem  *list.Element // LRU position; nil while filling
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	// Hits and Misses count in-memory lookups.
	Hits, Misses int64
	// DiskHits counts misses satisfied by the blob store without
	// regeneration; CorruptBlobs counts blobs rejected by validation.
	DiskHits, CorruptBlobs int64
	// BytesRead and BytesWritten count blob-store traffic.
	BytesRead, BytesWritten int64
}

// Cache memoises characterised dies across experiments, jobs, processes
// and (via shipped config hashes) cluster workers. The in-memory layer
// holds built values (chips) under an LRU bound; the optional disk layer
// holds raw die maps, so a restarted service re-characterises from local
// blobs instead of re-sampling. Fills for one key are collapsed
// (single-flight); fills for different keys proceed in parallel. Because
// die generation is deterministic, eviction and blob loss only ever cost
// time, never correctness. Safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	entries map[Key]*entry
	lru     *list.List // front = most recently used; values are Keys
	dir     string

	hits, misses, diskHits, corrupt, bytesRead, bytesWritten metrics.Counter
}

// New returns a cache holding at most cap built dies in memory (cap <= 0
// means unbounded). dir, if non-empty, enables the on-disk blob store.
func New(cap int, dir string) *Cache {
	return &Cache{cap: cap, entries: make(map[Key]*entry), lru: list.New(), dir: dir}
}

// SetDir enables (or, with "", disables) the disk blob store. Existing
// in-memory entries are unaffected.
func (c *Cache) SetDir(dir string) {
	c.mu.Lock()
	c.dir = dir
	c.mu.Unlock()
}

// Dir returns the blob-store directory ("" when disabled).
func (c *Cache) Dir() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dir
}

// Get returns the cached value for key, filling on first request. A fill
// first consults the blob store, then falls back to gen.Die(key.BatchSeed,
// key.Die); the resulting maps are passed to build, whose return value is
// what the memory layer holds. Concurrent Gets for one key share one
// fill. Waiting respects ctx; the fill itself is charged to the first
// requester and runs to completion so late waiters can still use it.
func (c *Cache) Get(ctx context.Context, key Key, gen Source, build func(*varmodel.DieMaps) (any, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits.Inc()
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		select {
		case <-e.ready:
			return e.val, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	e := &entry{ready: make(chan struct{})}
	c.entries[key] = e
	c.misses.Inc()
	dir := c.dir
	c.mu.Unlock()

	e.val, e.err = c.fill(ctx, key, dir, gen, build)
	close(e.ready)

	c.mu.Lock()
	if c.entries[key] == e {
		if e.err != nil {
			// Do not cache failures: a later retry (e.g. after a
			// transient resource problem) should re-fill.
			delete(c.entries, key)
		} else {
			e.elem = c.lru.PushFront(key)
			c.evictLocked()
		}
	}
	c.mu.Unlock()
	return e.val, e.err
}

// fill produces the value for one missed key: blob store first, then
// generation (with a best-effort blob write-back). Each fill carries a
// trace span whose src attribute records which path satisfied it.
func (c *Cache) fill(ctx context.Context, key Key, dir string, gen Source, build func(*varmodel.DieMaps) (any, error)) (any, error) {
	ctx, sp := trace.Start(ctx, "diecache.fill",
		trace.Int64("batch", key.BatchSeed), trace.Int("die", key.Die))
	defer sp.End()
	src := "generate"
	var maps *varmodel.DieMaps
	if dir != "" {
		m, n, err := loadBlob(dir, key, gen.Config())
		switch {
		case err != nil:
			// A corrupt blob must be loud — it means disk rot or a
			// writer bug — but never fatal: regeneration is
			// bit-identical to what the blob should have held.
			c.corrupt.Inc()
			log.Printf("diecache: discarding blob for %016x/%d/%d, regenerating: %v",
				key.ConfigHash, key.BatchSeed, key.Die, err)
			trace.Event(ctx, "diecache.corrupt")
		case m != nil:
			c.diskHits.Inc()
			c.bytesRead.Add(int64(n))
			maps, src = m, "disk"
		}
	}
	if maps == nil {
		m, err := gen.Die(key.BatchSeed, key.Die)
		if err != nil {
			return nil, err
		}
		maps = m
		if dir != "" {
			if n, err := saveBlob(dir, key, maps); err != nil {
				// Best-effort: a full or read-only disk degrades to
				// in-memory caching only.
				log.Printf("diecache: writing blob for %016x/%d/%d: %v",
					key.ConfigHash, key.BatchSeed, key.Die, err)
			} else {
				c.bytesWritten.Add(int64(n))
			}
		}
	}
	sp.AddAttr(trace.String("src", src))
	return build(maps)
}

// evictLocked drops least-recently-used completed entries until the
// memory layer fits its cap. In-flight fills are never evicted — waiters
// hold their channel — and eviction never touches the blob store.
func (c *Cache) evictLocked() {
	if c.cap <= 0 {
		return
	}
	for c.lru.Len() > c.cap {
		back := c.lru.Back()
		if back == nil {
			return
		}
		key := back.Value.(Key)
		c.lru.Remove(back)
		delete(c.entries, key)
	}
}

// Len returns the number of in-memory (or in-flight) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the cumulative counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:         c.hits.Value(),
		Misses:       c.misses.Value(),
		DiskHits:     c.diskHits.Value(),
		CorruptBlobs: c.corrupt.Value(),
		BytesRead:    c.bytesRead.Value(),
		BytesWritten: c.bytesWritten.Value(),
	}
}

// fieldFrom wraps raw map data in a grf.Field.
func fieldFrom(rows, cols int, data []float64) *grf.Field {
	return &grf.Field{Rows: rows, Cols: cols, Data: data}
}
