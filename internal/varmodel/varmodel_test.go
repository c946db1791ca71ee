package varmodel

import (
	"math"
	"testing"

	"vasched/internal/stats"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.GridRows, cfg.GridCols = 64, 64 // keep tests fast
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mut := []func(*Config){
		func(c *Config) { c.VthSigmaOverMu = -0.1 },
		func(c *Config) { c.VthSigmaOverMu = 0.9 },
		func(c *Config) { c.SystematicFraction = 1.5 },
		func(c *Config) { c.Phi = 0 },
		func(c *Config) { c.GridRows = 0 },
	}
	for i, f := range mut {
		cfg := testConfig()
		f(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestSigmaDecomposition(t *testing.T) {
	cfg := testConfig()
	total, sys, ran := cfg.SigmaVth()
	if math.Abs(total-0.12*cfg.Tech.VthNominal) > 1e-12 {
		t.Fatalf("total sigma = %v", total)
	}
	// Equal variances: sys^2 == ran^2 == total^2/2.
	if math.Abs(sys-ran) > 1e-12 {
		t.Fatalf("sys %v != ran %v for fraction 0.5", sys, ran)
	}
	if math.Abs(sys*sys+ran*ran-total*total) > 1e-12 {
		t.Fatal("variances do not add up")
	}
	lt, ls, lr := cfg.SigmaLeff()
	if math.Abs(lt-0.5*0.12*cfg.Tech.LeffNominal) > 1e-20 {
		t.Fatalf("Leff total sigma = %v", lt)
	}
	if math.Abs(ls*ls+lr*lr-lt*lt) > 1e-30 {
		t.Fatal("Leff variances do not add up")
	}
}

func TestDieMapsStatistics(t *testing.T) {
	cfg := testConfig()
	dies := dieWalk(t, cfg, 1, 30)
	// Pool all map cells: mean ~ 0 offset, std ~ sigma_sys.
	var all []float64
	for _, d := range dies {
		all = append(all, d.VthSys.Data...)
	}
	_, sys, _ := cfg.SigmaVth()
	if m := stats.Mean(all); math.Abs(m) > 0.15*sys {
		t.Fatalf("pooled systematic mean = %v", m)
	}
	if s := stats.StdDev(all); math.Abs(s-sys) > 0.1*sys {
		t.Fatalf("pooled systematic std = %v, want ~%v", s, sys)
	}
}

func TestDieDeterminismAndIndependence(t *testing.T) {
	cfg := testConfig()
	g1, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := g1.Die(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g2.Die(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.VthSys.Data {
		if a.VthSys.Data[i] != b.VthSys.Data[i] {
			t.Fatal("same (batch, index) produced different dies")
		}
	}
	c, err := g1.Die(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.VthSys.Data {
		if a.VthSys.Data[i] != c.VthSys.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different die indices produced identical maps")
	}
}

func TestVthLeffAccessors(t *testing.T) {
	cfg := testConfig()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.Die(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := d.VthAt(0.3, 0.4)
	if v <= 0 || v > 2*cfg.Tech.VthNominal {
		t.Fatalf("VthAt = %v, implausible", v)
	}
	l := d.LeffAt(0.3, 0.4)
	if l <= 0 || l > 2*cfg.Tech.LeffNominal {
		t.Fatalf("LeffAt = %v, implausible", l)
	}
	// Rect means should be close to the point value for a small rect
	// around the point (systematic component is smooth).
	rm := d.VthMeanOverRect(0.29, 0.39, 0.31, 0.41)
	if math.Abs(rm-v) > 0.02*cfg.Tech.VthNominal {
		t.Fatalf("rect mean %v far from point value %v", rm, v)
	}
	if lm := d.LeffMeanOverRect(0.29, 0.39, 0.31, 0.41); math.Abs(lm-l) > 0.05*cfg.Tech.LeffNominal {
		t.Fatalf("Leff rect mean %v far from point value %v", lm, l)
	}
}

func TestSpatialSmoothness(t *testing.T) {
	// With phi = 0.5, neighbouring cells must be far more similar than
	// cells half a chip apart.
	cfg := testConfig()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var near, far []float64
	for i := 0; i < 20; i++ {
		d, err := g.Die(3, i)
		if err != nil {
			t.Fatal(err)
		}
		f := d.VthSys
		for r := 0; r < f.Rows; r++ {
			near = append(near, math.Abs(f.At(r, 0)-f.At(r, 1)))
			far = append(far, math.Abs(f.At(r, 0)-f.At(r, f.Cols/2)))
		}
	}
	if stats.Mean(near) > 0.4*stats.Mean(far) {
		t.Fatalf("field not smooth: near diff %v vs far diff %v",
			stats.Mean(near), stats.Mean(far))
	}
}

func TestSigmaOverMuZero(t *testing.T) {
	// A variation-free configuration must produce flat maps.
	cfg := testConfig()
	cfg.VthSigmaOverMu = 0
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.Die(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range d.VthSys.Data {
		if v != 0 {
			t.Fatalf("zero-sigma die has offset %v", v)
		}
	}
	if d.VthSigmaRan != 0 {
		t.Fatalf("zero-sigma die has random sigma %v", d.VthSigmaRan)
	}
}

// TestDieOrderIndependence pins the property the cluster layer depends
// on: die k's maps are a pure function of (batchSeed, index), identical
// whether the batch is walked in order, sampled out of order, or a
// single die is regenerated in isolation (as a shard worker does). The
// circulant sampler's pair caching must not leak one call's randomness
// into the next.
func TestDieOrderIndependence(t *testing.T) {
	cfg := testConfig()
	batch := dieWalk(t, cfg, 3, 6)
	// Out-of-order and isolated walks on fresh generators: every die must
	// reproduce its in-order twin bit for bit (odd indices are the sharp
	// case: their fields come from the preceding even die's transform).
	for _, order := range [][]int{{5}, {3, 1}, {5, 0, 3, 4, 1, 2}, {1, 1}} {
		g2, err := NewGenerator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range order {
			d, err := g2.Die(3, k)
			if err != nil {
				t.Fatal(err)
			}
			for i := range d.VthSys.Data {
				if d.VthSys.Data[i] != batch[k].VthSys.Data[i] {
					t.Fatalf("die %d Vth map differs out of order (walk %v)", k, order)
				}
			}
			for i := range d.LeffSys.Data {
				if d.LeffSys.Data[i] != batch[k].LeffSys.Data[i] {
					t.Fatalf("die %d Leff map differs out of order (walk %v)", k, order)
				}
			}
		}
	}
	// A different batch seed interleaved mid-batch must not perturb the
	// pair cache into serving a stale sibling.
	g3, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g3.Die(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := g3.Die(9, 0); err != nil {
		t.Fatal(err)
	}
	d, err := g3.Die(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.VthSys.Data {
		if d.VthSys.Data[i] != batch[1].VthSys.Data[i] {
			t.Fatal("interleaved batch seeds perturbed die 1")
		}
	}
}
