package jobstore

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	"vasched/internal/tenant"
)

// Status is a job's lifecycle state as served by the API.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether s is a final state.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

func statusCode(s Status) uint8 {
	switch s {
	case StatusDone:
		return statusCodeDone
	case StatusFailed:
		return statusCodeFailed
	case StatusCancelled:
		return statusCodeCancelled
	}
	return 0
}

func codeStatus(c uint8) Status {
	switch c {
	case statusCodeDone:
		return StatusDone
	case statusCodeFailed:
		return StatusFailed
	case statusCodeCancelled:
		return StatusCancelled
	}
	return ""
}

// Spec is a job submission.
type Spec struct {
	Tenant     string
	Lane       tenant.Lane
	Experiment string
	Scale      string
	Workers    int
	// Params carries experiment-specific options as opaque JSON (e.g.
	// the adaptive-sampling config for ext-adapt); empty for plain runs.
	// It is persisted with the submit record so replay re-runs the job
	// with the options it was submitted with.
	Params []byte
}

// Job is one job's full state. Store methods return copies; mutating a
// returned Job has no effect on the store.
type Job struct {
	ID         uint64
	Tenant     string
	Lane       tenant.Lane
	Experiment string
	Scale      string
	Workers    int
	Params     []byte

	Status    Status
	Error     string
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
	Rendered  string
	Result    []byte // result JSON, replayable across restarts

	// Coord and Epoch identify the claim lease; zero when unclaimed.
	Coord string
	Epoch uint64
	// Requeues counts how many times the job was returned to the queue
	// by recovery (crash replay, clean-restart replay, or drain).
	Requeues int
}

// Errors returned by the mutating Store methods.
var (
	// ErrStaleEpoch fences a write from a superseded coordinator: the
	// caller's epoch is no longer the store's current epoch (or the job
	// was re-claimed under a newer one).
	ErrStaleEpoch = errors.New("jobstore: stale epoch")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobstore: no such job")
	// ErrBadState reports a transition the state machine forbids (e.g.
	// claiming a terminal job).
	ErrBadState = errors.New("jobstore: invalid state transition")
)

// Options configures Open.
type Options struct {
	// Dir is the data directory holding the WAL segments. Empty runs
	// the store purely in memory (no durability) — the mode the test
	// suite and -data-dir-less vaschedd use.
	Dir string
	// SegmentBytes rotates WAL segments at this size (default 4 MiB).
	SegmentBytes int64
	// Fsync syncs the segment file after every append. Off by default:
	// a SIGKILL'd process loses nothing either way (the page cache
	// survives it); only a machine crash does.
	Fsync bool
	// Now overrides the clock (tests); default time.Now.
	Now func() time.Time
}

// ReplayStats describes what boot-time replay found.
type ReplayStats struct {
	// Segments and Records are the log size replayed.
	Segments int
	Records  int
	// Requeued is how many claimed-but-uncompleted jobs were returned
	// to the queue.
	Requeued int
	// TornBytes is the size of a torn tail frame truncated from the
	// final segment (crash mid-append).
	TornBytes int64
	// CrashRecovered is true when a non-empty log did not end with a
	// clean-shutdown record: the previous coordinator died rather than
	// drained.
	CrashRecovered bool
}

// Store is the durable job table: an in-memory map materialised from
// the WAL at Open, with every mutation appended to the log before it
// is applied. All methods are safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	wal    *wal // nil in memory-only mode
	now    func() time.Time
	jobs   map[uint64]*Job
	nextID uint64
	epoch  uint64
	stats  ReplayStats
}

// stamp returns the time now as a record logs it: nanoseconds since the
// Unix epoch, with no monotonic clock reading. A job keeps exactly the
// times a replay of its records restores, so its view, elapsed time
// included, reads the same before and after a restart.
func (s *Store) stamp() time.Time { return time.Unix(0, s.now().UnixNano()) }

// Open replays the WAL under opts.Dir (creating the directory if
// needed) and returns the materialised store. Claimed-but-uncompleted
// jobs are re-queued: after a crash that is recovery, after a clean
// shutdown it re-queues work that was deliberately left for the next
// lifetime (see ReplayStats.CrashRecovered for which happened).
func Open(opts Options) (*Store, error) {
	s := &Store{
		now:    opts.Now,
		jobs:   make(map[uint64]*Job),
		nextID: 1,
	}
	if s.now == nil {
		s.now = time.Now
	}
	if opts.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	res, err := replaySegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	lastKind := Kind(0)
	for _, rec := range res.records {
		if err := s.apply(rec); err != nil {
			return nil, err
		}
		lastKind = rec.Kind
	}
	s.stats = ReplayStats{
		Segments:       res.segments,
		Records:        len(res.records),
		TornBytes:      res.tornBytes,
		CrashRecovered: len(res.records) > 0 && lastKind != KindShutdown,
	}
	// Recovery: a claim without a completion means the owning
	// coordinator is gone — the job goes back to the queue.
	for _, j := range s.jobs {
		if j.Status == StatusRunning {
			j.Status = StatusQueued
			j.Coord, j.Epoch, j.Started = "", 0, time.Time{}
			j.Requeues++
			s.stats.Requeued++
		}
	}
	s.wal, err = openWAL(opts.Dir, res.lastSeq, opts.SegmentBytes, opts.Fsync)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// apply folds one replayed record into the in-memory state. It is
// strict: a log whose records do not form a legal state-machine
// history is corrupt, and replay fails loudly rather than guessing.
func (s *Store) apply(rec *Record) error {
	switch rec.Kind {
	case KindSubmit:
		if _, ok := s.jobs[rec.ID]; ok {
			return corruptf("duplicate submit for job %d", rec.ID)
		}
		if rec.ID < s.nextID {
			return corruptf("submit for job %d regresses below next ID %d", rec.ID, s.nextID)
		}
		s.jobs[rec.ID] = &Job{
			ID:         rec.ID,
			Tenant:     rec.Tenant,
			Lane:       rec.Lane,
			Experiment: rec.Experiment,
			Scale:      rec.Scale,
			Workers:    int(rec.Workers),
			Params:     rec.Params,
			Status:     StatusQueued,
			Submitted:  time.Unix(0, rec.Unix),
		}
		s.nextID = rec.ID + 1
	case KindClaim:
		j, ok := s.jobs[rec.ID]
		if !ok {
			return corruptf("claim for unknown job %d", rec.ID)
		}
		if j.Status.Terminal() {
			return corruptf("claim for terminal job %d", rec.ID)
		}
		j.Status = StatusRunning
		j.Coord, j.Epoch = rec.Coord, rec.Epoch
		j.Started = time.Unix(0, rec.Unix)
	case KindComplete:
		j, ok := s.jobs[rec.ID]
		if !ok {
			return corruptf("completion for unknown job %d", rec.ID)
		}
		if j.Status.Terminal() {
			return corruptf("completion for terminal job %d", rec.ID)
		}
		st := codeStatus(rec.Status)
		if st == "" {
			return corruptf("completion for job %d with status code %d", rec.ID, rec.Status)
		}
		j.Status = st
		j.Error = rec.Error
		j.Rendered = string(rec.Rendered)
		j.Result = rec.Result
		j.Finished = time.Unix(0, rec.Unix)
	case KindEpoch:
		if rec.Epoch <= s.epoch {
			return corruptf("epoch %d does not advance past %d", rec.Epoch, s.epoch)
		}
		s.epoch = rec.Epoch
	case KindShutdown:
		// Only meaningful as the log's final record; nothing to fold.
	default:
		return corruptf("unknown record kind %d", rec.Kind)
	}
	return nil
}

// appendLocked encodes and appends a record. Memory-only stores encode
// too, so they refuse the records a log would refuse, and skip only the
// disk write. Callers hold s.mu and apply the mutation only after a nil
// return, preserving the WAL-before-state invariant.
func (s *Store) appendLocked(rec *Record) error {
	frame, err := EncodeRecord(rec)
	if err != nil || s.wal == nil {
		return err
	}
	return s.wal.append(frame)
}

// Stats returns what Open's replay found.
func (s *Store) Stats() ReplayStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Epoch returns the current (highest acquired) epoch.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// AcquireEpoch grants the coordinator a new, strictly increasing epoch
// and records it. From this point every write carrying an older epoch
// is fenced with ErrStaleEpoch.
func (s *Store) AcquireEpoch(coord string) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.epoch + 1
	rec := &Record{Kind: KindEpoch, Epoch: epoch, Coord: coord, Unix: s.now().UnixNano()}
	if err := s.appendLocked(rec); err != nil {
		return 0, err
	}
	s.epoch = epoch
	return epoch, nil
}

// Submit appends and creates a queued job, assigning the next ID.
// IDs are monotonic across coordinator lifetimes: replay restores the
// high-water mark, so a restart can never reissue an old ID.
func (s *Store) Submit(spec Spec) (Job, error) {
	if !spec.Lane.Valid() {
		return Job{}, fmt.Errorf("jobstore: invalid lane %d", spec.Lane)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.stamp()
	rec := &Record{
		Kind:       KindSubmit,
		ID:         s.nextID,
		Unix:       now.UnixNano(),
		Tenant:     spec.Tenant,
		Lane:       spec.Lane,
		Experiment: spec.Experiment,
		Scale:      spec.Scale,
		Workers:    uint32(spec.Workers),
		Params:     spec.Params,
	}
	if err := s.appendLocked(rec); err != nil {
		return Job{}, err
	}
	j := &Job{
		ID:         rec.ID,
		Tenant:     spec.Tenant,
		Lane:       spec.Lane,
		Experiment: spec.Experiment,
		Scale:      spec.Scale,
		Workers:    spec.Workers,
		Params:     spec.Params,
		Status:     StatusQueued,
		Submitted:  now,
	}
	s.jobs[j.ID] = j
	s.nextID++
	return *j, nil
}

// Claim leases a job to (coord, epoch) and marks it running. The epoch
// must be current; a queued job is always claimable, and a running job
// is claimable only when its lease belongs to an older epoch (lease
// takeover from a superseded coordinator).
func (s *Store) Claim(id uint64, coord string, epoch uint64) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch != s.epoch {
		return Job{}, fmt.Errorf("%w: claim with epoch %d, current %d", ErrStaleEpoch, epoch, s.epoch)
	}
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	switch {
	case j.Status == StatusQueued:
	case j.Status == StatusRunning && j.Epoch < epoch:
		// Takeover: the previous claimant's epoch has been fenced.
	default:
		return Job{}, fmt.Errorf("%w: claim of %s job %d", ErrBadState, j.Status, id)
	}
	now := s.stamp()
	rec := &Record{Kind: KindClaim, ID: id, Epoch: epoch, Coord: coord, Unix: now.UnixNano()}
	if err := s.appendLocked(rec); err != nil {
		return Job{}, err
	}
	j.Status = StatusRunning
	j.Coord, j.Epoch = coord, epoch
	j.Started = now
	return *j, nil
}

// Complete moves a running job to a terminal state. It is the fencing
// point: the write is rejected unless the caller's epoch is both the
// store's current epoch and the epoch the job is currently leased
// under — a coordinator that lost its lease cannot overwrite the
// re-claimed job's outcome. An error text over maxErrLen bytes is cut
// to its first maxErrLen (at a rune boundary), so the job still ends.
func (s *Store) Complete(id uint64, coord string, epoch uint64, st Status, errMsg, rendered string, result []byte) error {
	if !st.Terminal() {
		return fmt.Errorf("jobstore: Complete with non-terminal status %q", st)
	}
	if len(errMsg) > maxErrLen {
		n := maxErrLen
		for n > 0 && !utf8.RuneStart(errMsg[n]) {
			n--
		}
		errMsg = errMsg[:n]
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch != s.epoch {
		return fmt.Errorf("%w: completion with epoch %d, current %d", ErrStaleEpoch, epoch, s.epoch)
	}
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if j.Status != StatusRunning {
		return fmt.Errorf("%w: completion of %s job %d", ErrBadState, j.Status, id)
	}
	if j.Epoch != epoch {
		return fmt.Errorf("%w: job %d leased under epoch %d, completion under %d", ErrStaleEpoch, id, j.Epoch, epoch)
	}
	now := s.stamp()
	rec := &Record{
		Kind:     KindComplete,
		ID:       id,
		Epoch:    epoch,
		Coord:    coord,
		Unix:     now.UnixNano(),
		Status:   statusCode(st),
		Error:    errMsg,
		Rendered: []byte(rendered),
		Result:   result,
	}
	if err := s.appendLocked(rec); err != nil {
		return err
	}
	j.Status = st
	j.Error = errMsg
	j.Rendered = rendered
	j.Result = result
	j.Finished = now
	return nil
}

// Cancel terminates a still-queued job (running jobs are cancelled
// through their context and complete as cancelled via Complete).
func (s *Store) Cancel(id uint64, coord string, epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch != s.epoch {
		return fmt.Errorf("%w: cancel with epoch %d, current %d", ErrStaleEpoch, epoch, s.epoch)
	}
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	if j.Status != StatusQueued {
		return fmt.Errorf("%w: cancel of %s job %d", ErrBadState, j.Status, id)
	}
	now := s.stamp()
	rec := &Record{
		Kind:   KindComplete,
		ID:     id,
		Epoch:  epoch,
		Coord:  coord,
		Unix:   now.UnixNano(),
		Status: statusCodeCancelled,
		Error:  "cancelled before start",
	}
	if err := s.appendLocked(rec); err != nil {
		return err
	}
	j.Status = StatusCancelled
	j.Error = rec.Error
	j.Finished = now
	return nil
}

// Requeue returns a running job to the queued state in memory only —
// the drain path: the claim stays in the log uncompleted, so the next
// lifetime's replay re-queues it identically, and the live view agrees
// with what that replay will reconstruct.
func (s *Store) Requeue(id uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.Status != StatusRunning {
		return
	}
	j.Status = StatusQueued
	j.Coord, j.Epoch, j.Started = "", 0, time.Time{}
	j.Requeues++
}

// MarkShutdown appends the clean-shutdown record. It is epoch-fenced
// like every other write.
func (s *Store) MarkShutdown(coord string, epoch uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch != s.epoch {
		return fmt.Errorf("%w: shutdown with epoch %d, current %d", ErrStaleEpoch, epoch, s.epoch)
	}
	return s.appendLocked(&Record{Kind: KindShutdown, Epoch: epoch, Coord: coord, Unix: s.now().UnixNano()})
}

// Get returns a job snapshot.
func (s *Store) Get(id uint64) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns job snapshots sorted by descending ID (newest first —
// the documented, deterministic order). after > 0 restricts to IDs
// strictly below it (the pagination cursor); limit > 0 caps the page
// size.
func (s *Store) List(after uint64, limit int) []Job {
	s.mu.Lock()
	ids := make([]uint64, 0, len(s.jobs))
	for id := range s.jobs {
		if after > 0 && id >= after {
			continue
		}
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Slice(ids, func(i, k int) bool { return ids[i] > ids[k] })
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	out := make([]Job, 0, len(ids))
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range ids {
		if j, ok := s.jobs[id]; ok {
			out = append(out, *j)
		}
	}
	return out
}

// Reclaimable returns, in ascending ID order, the jobs a coordinator
// holding the given epoch should enqueue for execution: everything
// queued, plus running jobs whose lease belongs to an older (fenced)
// epoch.
func (s *Store) Reclaimable(epoch uint64) []Job {
	s.mu.Lock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if j.Status == StatusQueued || (j.Status == StatusRunning && j.Epoch < epoch) {
			out = append(out, *j)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Len returns the number of jobs in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// Close releases the WAL file handle. The store stays readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	err := s.wal.close()
	s.wal = nil
	return err
}
