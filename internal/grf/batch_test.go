package grf

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"vasched/internal/fft"
	"vasched/internal/stats"
)

// fieldsBitIdentical reports whether two fields are bit-for-bit equal,
// comparing Float64bits so that -0 vs 0 or NaN payload drift is caught.
func fieldsBitIdentical(a, b *Field) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestSampleBatchMatchesSequential pins the pair-wise path the die
// generator walks a batch through to the sequential one: n fields drawn
// as consecutive SamplePair transforms (real part, then imaginary part)
// must be byte-identical to n consecutive Sample calls on an identically
// seeded stream, for every parity of n, and must leave both streams at
// the same position (proven by continuing them afterwards). SamplePair
// must also leave a spare parked by an earlier Sample untouched, so
// interleaving the two never perturbs a sequential caller.
func TestSampleBatchMatchesSequential(t *testing.T) {
	cfg := Config{Rows: 32, Cols: 32, Phi: 0.5, Sigma: 0.03}
	for _, n := range []int{0, 1, 2, 3, 4, 7, 8} {
		for _, preSpare := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/preSpare=%v", n, preSpare), func(t *testing.T) {
				seqS, err := NewCirculantSampler(cfg)
				if err != nil {
					t.Fatal(err)
				}
				pairS, err := NewCirculantSampler(cfg)
				if err != nil {
					t.Fatal(err)
				}
				seed := int64(1000*int64(n) + 7)
				seqRNG, pairRNG := stats.NewRNG(seed), stats.NewRNG(seed)
				var parked *Field
				if preSpare {
					// Park a spare drawn from an unrelated stream: the
					// pair draws below must neither consume nor replace it.
					if _, err := pairS.Sample(stats.NewRNG(-seed)); err != nil {
						t.Fatal(err)
					}
					parked = pairS.spare
				}
				want := make([]*Field, n)
				for i := range want {
					if want[i], err = seqS.Sample(seqRNG); err != nil {
						t.Fatal(err)
					}
				}
				var got []*Field
				for len(got) < n {
					a, b, err := pairS.SamplePair(pairRNG)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, a, b)
				}
				for i := range want {
					if !fieldsBitIdentical(want[i], got[i]) {
						t.Fatalf("field %d differs between pair-wise and sequential draws", i)
					}
				}
				if pairS.spare != parked {
					t.Fatal("SamplePair disturbed the spare-field cache")
				}
				// Post-batch state: an odd n leaves the sequential sampler
				// holding the last pair's twin, and after that both streams
				// must draw the same next pair.
				if n%2 == 1 {
					w, err := seqS.Sample(seqRNG)
					if err != nil {
						t.Fatal(err)
					}
					if !fieldsBitIdentical(w, got[n]) {
						t.Fatal("sequential spare differs from the pair's second field")
					}
				}
				w, err := seqS.Sample(seqRNG)
				if err != nil {
					t.Fatal(err)
				}
				a, _, err := pairS.SamplePair(pairRNG)
				if err != nil {
					t.Fatal(err)
				}
				if !fieldsBitIdentical(w, a) {
					t.Fatal("post-batch draw differs: RNG positions diverged")
				}
			})
		}
	}
}

// TestSamplePairConcurrent runs SamplePair on one sampler from four
// goroutines, each with its own seeds, and checks every pair against the
// same draws made serially. Under -race it also proves SamplePair touches
// no mutable sampler state and that the shared transform buffers are
// never handed to two calls at once.
func TestSamplePairConcurrent(t *testing.T) {
	s, err := NewCirculantSampler(circulantRefCfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers, draws = 4, 3
	seed := func(w, i int) int64 { return int64(100*w + i) }
	want := make([][2]*Field, workers*draws)
	for w := 0; w < workers; w++ {
		for i := 0; i < draws; i++ {
			a, b, err := s.SamplePair(stats.NewRNG(seed(w, i)))
			if err != nil {
				t.Fatal(err)
			}
			want[w*draws+i] = [2]*Field{a, b}
		}
	}
	got := make([][2]*Field, workers*draws)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < draws; i++ {
				a, b, err := s.SamplePair(stats.NewRNG(seed(w, i)))
				if err != nil {
					errs <- err
					return
				}
				got[w*draws+i] = [2]*Field{a, b}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range want {
		if !fieldsBitIdentical(want[i][0], got[i][0]) || !fieldsBitIdentical(want[i][1], got[i][1]) {
			t.Fatalf("worker %d draw %d differs from the serial draw", i/draws, i%draws)
		}
	}
}

// legacyFullPair replicates the pre-pruning SamplePair pipeline — same
// noise expression, but a full Forward2D over the padded torus, in buf
// (prows*pcols elements, allocated once by the caller so that only
// transform cost is compared). It is the cost model of die regeneration
// before the region-pruned transform: a die then cost two of these (Vth
// and Leff pairs).
func legacyFullPair(s *CirculantSampler, rng *stats.RNG, buf []complex128) (*Field, *Field, error) {
	n := s.prows * s.pcols
	norm := 1.0 / math.Sqrt(float64(n))
	for i := 0; i < n; i++ {
		buf[i] = complex(rng.Norm()*s.sqrtLambda[i]*norm, rng.Norm()*s.sqrtLambda[i]*norm)
	}
	if err := fft.Forward2D(buf, s.prows, s.pcols); err != nil {
		return nil, nil, err
	}
	a := &Field{Rows: s.cfg.Rows, Cols: s.cfg.Cols, Data: make([]float64, s.cfg.Rows*s.cfg.Cols)}
	b := &Field{Rows: s.cfg.Rows, Cols: s.cfg.Cols, Data: make([]float64, s.cfg.Rows*s.cfg.Cols)}
	for r := 0; r < s.cfg.Rows; r++ {
		for c := 0; c < s.cfg.Cols; c++ {
			z := buf[r*s.pcols+c]
			a.Data[r*s.cfg.Cols+c] = real(z)
			b.Data[r*s.cfg.Cols+c] = imag(z)
		}
	}
	return a, b, nil
}

// TestSampleBatchSpeedupGate is the pruned-pair gate: a die generated
// through SamplePair must cost at least 3x less than the same die through
// the legacy path (two full-torus transform pairs, one per map).
//
// The ≥3x bound is enforced on transform work (fft.PointsTransformed
// butterfly outputs), which is exact and deterministic: per die, the
// legacy path runs two full 512x512 transform pairs (9.44M points) where
// the pruned path amortises one region-pruned pair across two dies per
// map (2.54M points), a 3.7x reduction no scheduler hiccup can blur. The
// wall-clock ratio is measured alongside (interleaved, best-of-round) and
// held to a conservative floor: the frozen-arithmetic noise draws
// (~40% of the pruned cost, identical on both paths per field) dilute
// the transform win, so end-to-end lands near 3x with run-to-run noise —
// EXPERIMENTS.md reports the measured numbers.
func TestSampleBatchSpeedupGate(t *testing.T) {
	if raceEnabled {
		t.Skip("wall-clock half of the gate is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	s, err := NewCirculantSampler(benchCfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(42)
	buf := make([]complex128, s.prows*s.pcols)
	// Warm caches (spectrum, twiddles, buffers) before measuring.
	if _, _, err := s.SamplePair(rng); err != nil {
		t.Fatal(err)
	}
	if _, _, err := legacyFullPair(s, rng, buf); err != nil {
		t.Fatal(err)
	}

	// Deterministic half: butterfly outputs per die, legacy vs pruned.
	p0 := fft.PointsTransformed()
	if _, _, err := legacyFullPair(s, rng, buf); err != nil {
		t.Fatal(err)
	}
	p1 := fft.PointsTransformed()
	if _, _, err := s.SamplePair(rng); err != nil {
		t.Fatal(err)
	}
	p2 := fft.PointsTransformed()
	legacyDiePts := 2 * (p1 - p0) // one full pair per map (Vth, Leff)
	prunedDiePts := p2 - p1       // one pruned pair spans two dies per map
	ptsRatio := float64(legacyDiePts) / float64(prunedDiePts)
	t.Logf("transform work: legacy %d pts/die, pruned %d pts/die: %.2fx", legacyDiePts, prunedDiePts, ptsRatio)
	if ptsRatio < 3.0 {
		t.Fatalf("pruned-pair transform work %.2fx < 3.0x gate (legacy %d pts/die vs pruned %d pts/die)",
			ptsRatio, legacyDiePts, prunedDiePts)
	}

	// Wall-clock half: interleaved rounds, best-of minima on both sides so
	// noise can only suppress the ratio symmetrically. Floor at 2.2x — far
	// below the ~3x this gate measures on a quiet host, far above what any
	// regression to the unpruned path would score (1.0x).
	const rounds, pairs = 5, 4
	legacyPair := time.Duration(math.MaxInt64)
	prunedField := time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		if _, _, err := legacyFullPair(s, rng, buf); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(t0); d < legacyPair {
			legacyPair = d
		}
		t0 = time.Now()
		for p := 0; p < pairs; p++ {
			if _, _, err := s.SamplePair(rng); err != nil {
				t.Fatal(err)
			}
		}
		if d := time.Since(t0) / (2 * pairs); d < prunedField {
			prunedField = d
		}
	}
	legacyDie := 2 * legacyPair  // two full pairs
	prunedDie := 2 * prunedField // two fields
	ratio := float64(legacyDie) / float64(prunedDie)
	t.Logf("wall clock: legacy die %v (pair %v), pruned die %v (field %v): speedup %.2fx",
		legacyDie, legacyPair, prunedDie, prunedField, ratio)
	if ratio < 2.2 {
		t.Fatalf("pruned-pair wall-clock speedup %.2fx < 2.2x sanity floor (legacy %v/die vs pruned %v/die)",
			ratio, legacyDie, prunedDie)
	}
}
