package thermal

import (
	"math"
	"testing"

	"vasched/internal/floorplan"
)

func newTestModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(floorplan.New20CoreCMP(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestZeroPowerIsAmbient(t *testing.T) {
	m := newTestModel(t)
	temps, err := m.Solve(make([]float64, len(floorplan.New20CoreCMP().Blocks)))
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range temps {
		if math.Abs(tc-m.Config().AmbientC) > 1e-9 {
			t.Fatalf("block %d at %v C with no power", i, tc)
		}
	}
}

func TestUniformPowerPlausibleRange(t *testing.T) {
	m := newTestModel(t)
	fp := floorplan.New20CoreCMP()
	p := make([]float64, len(fp.Blocks))
	// ~90 W spread uniformly by area.
	for i, b := range fp.Blocks {
		p[i] = 90 * b.R.Area()
	}
	temps, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	maxT := m.MaxTemp(temps)
	if maxT < 60 || maxT > 110 {
		t.Fatalf("full-chip 90 W peak temp = %v C, outside plausible range", maxT)
	}
}

func TestHotSpotLocality(t *testing.T) {
	// Power a single core; its blocks must be hotter than a far-away core.
	fp := floorplan.New20CoreCMP()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, len(fp.Blocks))
	for i, b := range fp.Blocks {
		if b.Core == 0 {
			p[i] = 1.0 // 6 W total in core 0
		}
	}
	temps, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	hot := m.CoreMeanTemp(temps, 0)
	cold := m.CoreMeanTemp(temps, 19)
	if hot <= cold+1 {
		t.Fatalf("heated core %v C not hotter than idle distant core %v C", hot, cold)
	}
}

func TestLateralSpreading(t *testing.T) {
	// A neighbour of the heated core must be warmer than a distant core.
	fp := floorplan.New20CoreCMP()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, len(fp.Blocks))
	for i, b := range fp.Blocks {
		if b.Core == 0 {
			p[i] = 1.0
		}
	}
	temps, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	neighbour := m.CoreMeanTemp(temps, 1) // core 1 is adjacent to core 0
	distant := m.CoreMeanTemp(temps, 19)
	if neighbour <= distant {
		t.Fatalf("no lateral spreading: neighbour %v C vs distant %v C", neighbour, distant)
	}
}

func TestEnergyBalance(t *testing.T) {
	// In steady state, total input power equals heat leaving vertically:
	// sum(gVert_i * dT_i) == sum(P_i).
	fp := floorplan.New20CoreCMP()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, len(fp.Blocks))
	total := 0.0
	for i, b := range fp.Blocks {
		p[i] = 50 * b.R.Area()
		total += p[i]
	}
	temps, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	out := 0.0
	for i := range temps {
		out += m.gVert[i] * (temps[i] - m.Config().AmbientC)
	}
	if math.Abs(out-total) > 1e-6*total {
		t.Fatalf("energy not conserved: in %v W, out %v W", total, out)
	}
}

func TestFixedPointConvergence(t *testing.T) {
	fp := floorplan.New20CoreCMP()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dyn := make([]float64, len(fp.Blocks))
	for i, b := range fp.Blocks {
		dyn[i] = 60 * b.R.Area()
	}
	// Leakage that doubles every 40 C above ambient — representative
	// exponential coupling.
	leakFn := func(temps []float64) []float64 {
		leak := make([]float64, len(temps))
		for i, tc := range temps {
			leak[i] = 0.05 * math.Pow(2, (tc-45)/40)
		}
		return leak
	}
	temps, leak, iters, err := m.FixedPoint(dyn, leakFn, 0.01, 100)
	if err != nil {
		t.Fatal(err)
	}
	if iters >= 100 {
		t.Fatalf("fixed point did not converge in %d iterations", iters)
	}
	// Self-consistency: re-solving with the returned leakage reproduces
	// the returned temperatures.
	total := make([]float64, len(dyn))
	for i := range total {
		total[i] = dyn[i] + leak[i]
	}
	check, err := m.Solve(total)
	if err != nil {
		t.Fatal(err)
	}
	for i := range temps {
		if math.Abs(check[i]-temps[i]) > 0.1 {
			t.Fatalf("fixed point inconsistent at block %d: %v vs %v", i, check[i], temps[i])
		}
	}
}

func TestFixedPointValidation(t *testing.T) {
	m := newTestModel(t)
	if _, _, _, err := m.FixedPoint([]float64{1, 2}, nil, 0.01, 10); err == nil {
		t.Fatal("wrong-size power vector accepted")
	}
	fp := floorplan.New20CoreCMP()
	dyn := make([]float64, len(fp.Blocks))
	badLeak := func([]float64) []float64 { return []float64{1} }
	if _, _, _, err := m.FixedPoint(dyn, badLeak, 0.01, 10); err == nil {
		t.Fatal("wrong-size leakage vector accepted")
	}
}

func TestSolveValidation(t *testing.T) {
	m := newTestModel(t)
	if _, err := m.Solve([]float64{1}); err == nil {
		t.Fatal("wrong-size power vector accepted")
	}
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VerticalConductance = 0
	if _, err := New(floorplan.New20CoreCMP(), cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		cfg := DefaultConfig()
		cfg.VerticalConductance = bad
		if _, err := New(floorplan.New20CoreCMP(), cfg); err == nil {
			t.Fatalf("vertical conductance %v accepted", bad)
		}
		cfg = DefaultConfig()
		cfg.LateralConductance = bad
		if _, err := New(floorplan.New20CoreCMP(), cfg); err == nil {
			t.Fatalf("lateral conductance %v accepted", bad)
		}
		cfg = DefaultConfig()
		cfg.AmbientC = bad
		if _, err := New(floorplan.New20CoreCMP(), cfg); err == nil {
			t.Fatalf("ambient %v accepted", bad)
		}
	}
	// The clamp must sit above ambient; NaN would silently disable it.
	for _, bad := range []float64{math.NaN(), math.Inf(-1), -10, 44, 45} {
		cfg := DefaultConfig()
		cfg.MaxTempC = bad
		if _, err := New(floorplan.New20CoreCMP(), cfg); err == nil {
			t.Fatalf("clamp %v at ambient %v accepted", bad, cfg.AmbientC)
		}
	}
	cfg = DefaultConfig()
	cfg.MaxTempC = math.Inf(1) // no clamp at all is a valid choice
	if _, err := New(floorplan.New20CoreCMP(), cfg); err != nil {
		t.Fatalf("infinite clamp rejected: %v", err)
	}
}

func TestMaxTempClamp(t *testing.T) {
	m := newTestModel(t)
	fp := floorplan.New20CoreCMP()
	p := make([]float64, len(fp.Blocks))
	for i := range p {
		p[i] = 100 // absurd 12 kW chip
	}
	temps, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxTemp(temps) > m.Config().MaxTempC {
		t.Fatal("clamp not applied")
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	fp := floorplan.New20CoreCMP()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, len(fp.Blocks))
	for i, b := range fp.Blocks {
		p[i] = 80 * b.R.Area()
	}
	steady, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(1)
	if err != nil {
		t.Fatal(err)
	}
	temps := make([]float64, len(fp.Blocks))
	for i := range temps {
		temps[i] = m.Config().AmbientC
	}
	// March long enough to pass several thermal time constants.
	for step := 0; step < 2000; step++ {
		temps, err = tr.Step(p, temps)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := range temps {
		if math.Abs(temps[i]-steady[i]) > 0.5 {
			t.Fatalf("block %d transient %v C vs steady %v C", i, temps[i], steady[i])
		}
	}
}

func TestTransientInertia(t *testing.T) {
	// One step after a power jump must move temperatures only part of the
	// way to steady state — that lag is the whole point of the model.
	fp := floorplan.New20CoreCMP()
	m, err := New(fp, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := make([]float64, len(fp.Blocks))
	for i, b := range fp.Blocks {
		if b.Core == 0 {
			p[i] = 1.5
		}
	}
	steady, err := m.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.NewTransient(1)
	if err != nil {
		t.Fatal(err)
	}
	cold := make([]float64, len(fp.Blocks))
	for i := range cold {
		cold[i] = m.Config().AmbientC
	}
	after, err := tr.Step(p, cold)
	if err != nil {
		t.Fatal(err)
	}
	hot := m.CoreMeanTemp(steady, 0) - m.Config().AmbientC
	oneStep := m.CoreMeanTemp(after, 0) - m.Config().AmbientC
	if oneStep <= 0 {
		t.Fatal("no heating after one step")
	}
	if oneStep > 0.6*hot {
		t.Fatalf("1 ms step covered %v of the %v K rise; no inertia", oneStep, hot)
	}
	if tr.StepMS() != 1 {
		t.Fatalf("StepMS = %v", tr.StepMS())
	}
}

func TestTransientValidation(t *testing.T) {
	m := newTestModel(t)
	if _, err := m.NewTransient(0); err == nil {
		t.Fatal("zero step accepted")
	}
	tr, err := m.NewTransient(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Step([]float64{1}, []float64{2}); err == nil {
		t.Fatal("wrong-size step accepted")
	}
}
