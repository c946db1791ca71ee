package jobstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"vasched/internal/tenant"
)

// testClock is a deterministic, strictly advancing clock.
func testClock() func() time.Time {
	t := time.Unix(1_700_000_000, 0)
	return func() time.Time {
		t = t.Add(time.Millisecond)
		return t
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(Options{Dir: dir, Now: testClock()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func submit(t *testing.T, s *Store, exp string) Job {
	t.Helper()
	j, err := s.Submit(Spec{Tenant: "t", Lane: tenant.LaneInteractive, Experiment: exp, Scale: "quick", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// TestParamsSurviveReplay: a submission's experiment-specific options
// blob is part of the submit record, so a restarted coordinator re-runs
// the job with the exact options it was submitted with.
func TestParamsSurviveReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	params := []byte(`{"metric":"power-ratio","rel_ci":0.01}`)
	j, err := s.Submit(Spec{Tenant: "t", Lane: tenant.LaneBatch, Experiment: "ext-adapt", Scale: "quick", Params: params})
	if err != nil {
		t.Fatal(err)
	}
	if string(j.Params) != string(params) {
		t.Fatalf("submit params = %q", j.Params)
	}
	s.Close()
	re := mustOpen(t, dir)
	got, ok := re.Get(j.ID)
	if !ok {
		t.Fatal("job lost on replay")
	}
	if string(got.Params) != string(params) {
		t.Fatalf("replayed params = %q, want %q", got.Params, params)
	}
}

// TestLifecycleAndReplay drives the full submit→claim→complete state
// machine, restarts the store, and checks the replayed state — IDs,
// statuses, results — matches byte for byte.
func TestLifecycleAndReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	epoch, err := s.AcquireEpoch("pod-a")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("first epoch = %d", epoch)
	}

	j1 := submit(t, s, "fig4")
	j2 := submit(t, s, "table5")
	if j1.ID != 1 || j2.ID != 2 {
		t.Fatalf("ids = %d, %d", j1.ID, j2.ID)
	}
	if _, err := s.Claim(j1.ID, "pod-a", epoch); err != nil {
		t.Fatal(err)
	}
	result := []byte(`{"Checksum":"abc","Rows":3}`)
	if err := s.Complete(j1.ID, "pod-a", epoch, StatusDone, "", "Figure 4 report", result); err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(j2.ID, "pod-a", epoch); err != nil {
		t.Fatal(err)
	}
	if err := s.MarkShutdown("pod-a", epoch); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re := mustOpen(t, dir)
	st := re.Stats()
	if st.CrashRecovered {
		t.Fatal("clean shutdown replayed as crash recovery")
	}
	// epoch + submit + submit + claim + complete + cancel + shutdown.
	if st.Records != 7 {
		t.Fatalf("records = %d", st.Records)
	}
	g1, ok := re.Get(1)
	if !ok || g1.Status != StatusDone || g1.Rendered != "Figure 4 report" || string(g1.Result) != string(result) {
		t.Fatalf("replayed job 1 = %+v", g1)
	}
	if g1.Coord != "pod-a" || g1.Epoch != 1 {
		t.Fatalf("replayed lease = %q/%d", g1.Coord, g1.Epoch)
	}
	g2, _ := re.Get(2)
	if g2.Status != StatusCancelled {
		t.Fatalf("replayed job 2 status = %s", g2.Status)
	}
	// Monotonic IDs across lifetimes: the next submit continues, never
	// collides.
	j3 := submit(t, re, "fig6")
	if j3.ID != 3 {
		t.Fatalf("post-restart id = %d, want 3", j3.ID)
	}
	if re.Epoch() != 1 {
		t.Fatalf("replayed epoch = %d", re.Epoch())
	}
}

// TestCrashRecoveryRequeues simulates a coordinator crash: claimed
// jobs lose their lease on replay and return to the queue, and the
// stats flag the restart as crash recovery.
func TestCrashRecoveryRequeues(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	epoch, _ := s.AcquireEpoch("pod-a")
	j1 := submit(t, s, "fig4")
	j2 := submit(t, s, "fig6")
	if _, err := s.Claim(j1.ID, "pod-a", epoch); err != nil {
		t.Fatal(err)
	}
	s.Close() // no MarkShutdown: this is the crash

	re := mustOpen(t, dir)
	st := re.Stats()
	if !st.CrashRecovered || st.Requeued != 1 {
		t.Fatalf("stats = %+v", st)
	}
	g1, _ := re.Get(j1.ID)
	if g1.Status != StatusQueued || g1.Requeues != 1 || g1.Coord != "" || g1.Epoch != 0 {
		t.Fatalf("recovered job = %+v", g1)
	}
	g2, _ := re.Get(j2.ID)
	if g2.Status != StatusQueued || g2.Requeues != 0 {
		t.Fatalf("queued job = %+v", g2)
	}
	recl := re.Reclaimable(re.Epoch() + 1)
	if len(recl) != 2 || recl[0].ID != j1.ID || recl[1].ID != j2.ID {
		t.Fatalf("reclaimable = %+v", recl)
	}
}

// TestEpochFencing is the two-coordinators-one-log acceptance test:
// pod-b supersedes pod-a, pod-a's in-flight writes are rejected, and
// pod-b takes over the lease and completes the job.
func TestEpochFencing(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	e1, _ := s.AcquireEpoch("pod-a")
	j := submit(t, s, "fig4")
	if _, err := s.Claim(j.ID, "pod-a", e1); err != nil {
		t.Fatal(err)
	}

	// pod-b attaches to the same log and acquires the next epoch.
	e2, _ := s.AcquireEpoch("pod-b")
	if e2 != e1+1 {
		t.Fatalf("epochs = %d, %d", e1, e2)
	}

	// Every stale-epoch write is fenced.
	if err := s.Complete(j.ID, "pod-a", e1, StatusDone, "", "stale", nil); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale complete = %v", err)
	}
	if _, err := s.Claim(j.ID, "pod-a", e1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale claim = %v", err)
	}
	if err := s.Cancel(j.ID, "pod-a", e1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale cancel = %v", err)
	}
	if err := s.MarkShutdown("pod-a", e1); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("stale shutdown = %v", err)
	}

	// pod-b sees the stale-leased job as reclaimable and takes it over.
	recl := s.Reclaimable(e2)
	if len(recl) != 1 || recl[0].ID != j.ID {
		t.Fatalf("reclaimable = %+v", recl)
	}
	if _, err := s.Claim(j.ID, "pod-b", e2); err != nil {
		t.Fatalf("takeover claim: %v", err)
	}
	// pod-a still cannot write, even though the job is "its".
	if err := s.Complete(j.ID, "pod-a", e1, StatusDone, "", "stale", nil); !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("post-takeover stale complete = %v", err)
	}
	if err := s.Complete(j.ID, "pod-b", e2, StatusDone, "", "ok", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	g, _ := s.Get(j.ID)
	if g.Status != StatusDone || g.Coord != "pod-b" || g.Rendered != "ok" {
		t.Fatalf("final job = %+v", g)
	}
	// A second claim of a terminal job is a state error, not a fence.
	if _, err := s.Claim(j.ID, "pod-b", e2); !errors.Is(err, ErrBadState) {
		t.Fatalf("claim of done job = %v", err)
	}
}

// TestStateMachineRejections pins the transitions the store forbids.
func TestStateMachineRejections(t *testing.T) {
	s := mustOpen(t, "")
	e, _ := s.AcquireEpoch("pod")
	j := submit(t, s, "fig4")

	if err := s.Complete(j.ID, "pod", e, StatusDone, "", "", nil); !errors.Is(err, ErrBadState) {
		t.Fatalf("complete of queued job = %v", err)
	}
	if err := s.Complete(j.ID, "pod", e, StatusQueued, "", "", nil); err == nil {
		t.Fatal("complete with non-terminal status accepted")
	}
	if _, err := s.Claim(99, "pod", e); !errors.Is(err, ErrNotFound) {
		t.Fatalf("claim of unknown job = %v", err)
	}
	if _, err := s.Claim(j.ID, "pod", e); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Claim(j.ID, "pod", e); !errors.Is(err, ErrBadState) {
		t.Fatalf("same-epoch double claim = %v", err)
	}
	if err := s.Cancel(j.ID, "pod", e); !errors.Is(err, ErrBadState) {
		t.Fatalf("cancel of running job = %v", err)
	}
	if _, err := s.Submit(Spec{Tenant: "t", Lane: tenant.Lane(9)}); err == nil {
		t.Fatal("submit with invalid lane accepted")
	}
}

// TestRequeueMirrorsReplay checks the drain path: an in-memory Requeue
// of a running job leaves the live view exactly where the next
// lifetime's replay will land.
func TestRequeueMirrorsReplay(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	e, _ := s.AcquireEpoch("pod")
	j := submit(t, s, "fig4")
	if _, err := s.Claim(j.ID, "pod", e); err != nil {
		t.Fatal(err)
	}
	s.Requeue(j.ID)
	live, _ := s.Get(j.ID)
	if err := s.MarkShutdown("pod", e); err != nil {
		t.Fatal(err)
	}
	s.Close()

	re := mustOpen(t, dir)
	if re.Stats().CrashRecovered {
		t.Fatal("drained shutdown replayed as crash")
	}
	replayed, _ := re.Get(j.ID)
	if live.Status != replayed.Status || live.Requeues != replayed.Requeues {
		t.Fatalf("live %+v vs replayed %+v", live, replayed)
	}
	if replayed.Status != StatusQueued || replayed.Requeues != 1 {
		t.Fatalf("replayed = %+v", replayed)
	}
}

// TestListPagination pins the documented order (descending ID) and the
// limit/after cursor semantics.
func TestListPagination(t *testing.T) {
	s := mustOpen(t, "")
	for i := 0; i < 5; i++ {
		submit(t, s, fmt.Sprintf("exp-%d", i))
	}
	all := s.List(0, 0)
	if len(all) != 5 || all[0].ID != 5 || all[4].ID != 1 {
		t.Fatalf("List(0,0) ids = %v", ids(all))
	}
	page1 := s.List(0, 2)
	if len(page1) != 2 || page1[0].ID != 5 || page1[1].ID != 4 {
		t.Fatalf("page1 ids = %v", ids(page1))
	}
	page2 := s.List(page1[len(page1)-1].ID, 2)
	if len(page2) != 2 || page2[0].ID != 3 || page2[1].ID != 2 {
		t.Fatalf("page2 ids = %v", ids(page2))
	}
	page3 := s.List(page2[len(page2)-1].ID, 2)
	if len(page3) != 1 || page3[0].ID != 1 {
		t.Fatalf("page3 ids = %v", ids(page3))
	}
	if got := s.List(1, 2); len(got) != 0 {
		t.Fatalf("List(1,2) = %v", ids(got))
	}
}

func ids(jobs []Job) []uint64 {
	out := make([]uint64, len(jobs))
	for i, j := range jobs {
		out[i] = j.ID
	}
	return out
}

// TestMemoryOnlyStore checks Dir:"" runs the whole state machine with
// no files.
func TestMemoryOnlyStore(t *testing.T) {
	s := mustOpen(t, "")
	e, _ := s.AcquireEpoch("pod")
	j := submit(t, s, "fig4")
	if _, err := s.Claim(j.ID, "pod", e); err != nil {
		t.Fatal(err)
	}
	if err := s.Complete(j.ID, "pod", e, StatusDone, "", "r", nil); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompleteCutsOverlongError: an error text longer than a record can
// hold is cut to its first bytes, so the job still ends as failed and
// the log it leaves replays.
func TestCompleteCutsOverlongError(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	epoch, err := s.AcquireEpoch("pod-a")
	if err != nil {
		t.Fatal(err)
	}
	j := submit(t, s, "fig4")
	if _, err := s.Claim(j.ID, "pod-a", epoch); err != nil {
		t.Fatal(err)
	}
	text := strings.Repeat("é-boom ", 8_750) // 70,000 bytes, a two-byte rune in every eight
	if err := s.Complete(j.ID, "pod-a", epoch, StatusFailed, text, "", nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	re := mustOpen(t, dir)
	g, ok := re.Get(j.ID)
	if !ok || g.Status != StatusFailed {
		t.Fatalf("replayed job = %+v, want failed", g)
	}
	if len(g.Error) > maxErrLen || len(g.Error) <= maxErrLen-utf8.UTFMax || !strings.HasPrefix(text, g.Error) || !utf8.ValidString(g.Error) {
		t.Fatalf("replayed error holds %d bytes, want a valid prefix of the text cut to at most %d", len(g.Error), maxErrLen)
	}
}

// TestOverlongCoordIDRefused: a coordinator id longer than a record can
// hold is refused before it reaches the log, which still reopens.
func TestOverlongCoordIDRefused(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	if _, err := s.AcquireEpoch("pod-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AcquireEpoch(strings.Repeat("c", 2000)); err == nil {
		t.Fatal("a 2,000-byte coordinator id was accepted")
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d after the refused acquire, want 1", s.Epoch())
	}
	s.Close()
	re := mustOpen(t, dir)
	if re.Epoch() != 1 || re.Stats().Records != 1 {
		t.Fatalf("reopened store: epoch %d, %d records; want 1 and 1", re.Epoch(), re.Stats().Records)
	}
}
