package wearout

import (
	"math"
	"math/rand"
	"testing"
)

// refAccelerationFactor and refAdd are AccelerationFactor and
// Accumulator.Add as they were before Add batched its exponentials,
// frozen as the reference: one math.Exp per powered core, in core order.
func refAccelerationFactor(p Params, tempC, v float64) float64 {
	if v <= 0 {
		return 0
	}
	tRef := p.TRefC + 273.15
	t := tempC + 273.15
	th := math.Exp(p.ActivationEnergyEV / boltzmannEV * (1/tRef - 1/t))
	em := th
	bti := th * math.Pow(v/p.VRef, p.VoltageExponent)
	return p.EMWeight*em + (1-p.EMWeight)*bti
}

func refAdd(p Params, aged []float64, total *float64, tempC, v []float64, dt float64) {
	for i := range aged {
		aged[i] += refAccelerationFactor(p, tempC[i], v[i]) * dt
	}
	*total += dt
}

// TestAddMatchesFrozenLoop drives Add and the frozen loop with the same
// drawn ticks, on the default and on drawn parameters, 20 cores with
// powered-off ones (v = 0, and a negative v) and temperatures from
// ambient to the clamp, and requires the same bits in every core's
// equivalent time and in the total.
func TestAddMatchesFrozenLoop(t *testing.T) {
	g := rand.New(rand.NewSource(27))
	levels := []float64{0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0, 1.05, 1.1}
	for run := 0; run < 20; run++ {
		p := DefaultParams()
		if run%2 == 1 {
			p.ActivationEnergyEV = 0.1 + g.Float64()
			p.TRefC = 40 + 40*g.Float64()
			p.VRef = 0.8 + 0.4*g.Float64()
			p.VoltageExponent = 1 + 3*g.Float64()
			p.EMWeight = g.Float64()
		}
		const cores = 20
		acc, err := NewAccumulator(p, cores)
		if err != nil {
			t.Fatal(err)
		}
		aged, total := make([]float64, cores), 0.0
		temps, volts := make([]float64, cores), make([]float64, cores)
		for tick := 0; tick < 200; tick++ {
			for i := range temps {
				temps[i] = 45 + 105*g.Float64()
				switch g.Intn(6) {
				case 0:
					volts[i] = 0
				case 1:
					volts[i] = -0.1
				default:
					volts[i] = levels[g.Intn(len(levels))]
				}
			}
			dt := 0.1 + 2*g.Float64()
			if err := acc.Add(temps, volts, dt); err != nil {
				t.Fatal(err)
			}
			refAdd(p, aged, &total, temps, volts, dt)
		}
		got := acc.EquivalentTime()
		for i := range aged {
			if math.Float64bits(got[i]) != math.Float64bits(aged[i]) {
				t.Fatalf("run %d core %d: equivalent time %v, frozen loop %v", run, i, got[i], aged[i])
			}
		}
		if acc.Total() != total {
			t.Fatalf("run %d: total %v, frozen loop %v", run, acc.Total(), total)
		}
	}
}

// TestAddDoesNotAllocate pins that a tick's Add allocates nothing.
func TestAddDoesNotAllocate(t *testing.T) {
	acc, err := NewAccumulator(DefaultParams(), 20)
	if err != nil {
		t.Fatal(err)
	}
	temps, volts := make([]float64, 20), make([]float64, 20)
	for i := range temps {
		temps[i], volts[i] = 60+float64(i), float64(i%3)*0.5
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = acc.Add(temps, volts, 1) }); allocs != 0 {
		t.Fatalf("Add allocates %v objects", allocs)
	}
}
