package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"vasched/internal/chip"
	"vasched/internal/stats"
)

// kernelDieRatios is the distributable form of dieRatios: one die in,
// its max/min core power and frequency ratios out. JSON float64
// serialisation is exact (shortest round-trip representation), so the
// decoded values — and every statistic computed from them — are
// bit-identical whether the kernel ran locally or on a remote worker.
const kernelDieRatios = "die-ratios"

// dieRatiosBlob is the kernel's wire shape.
type dieRatiosBlob struct {
	PowerRatio float64 `json:"pr"`
	FreqRatio  float64 `json:"fr"`
}

func init() {
	RegisterKernel(kernelDieRatios, func(_ context.Context, e *Env, die int) ([]byte, error) {
		c, err := e.Chip(die)
		if err != nil {
			return nil, err
		}
		pr, fr, err := dieRatios(e, c)
		if err != nil {
			return nil, err
		}
		return json.Marshal(dieRatiosBlob{PowerRatio: pr, FreqRatio: fr})
	})
}

// Fig4Result reproduces Figure 4: histograms, over a batch of dies, of the
// within-die ratios between the most and least power-consuming core (a)
// and the fastest and slowest core (b).
type Fig4Result struct {
	NumDies    int
	PowerRatio []float64 // one entry per die
	FreqRatio  []float64
	PowerHist  *stats.Histogram
	FreqHist   *stats.Histogram
}

// Fig4 runs the paper's Section 7.1 experiment: for each die, every
// application is run alone on every core and the per-core average power is
// recorded; the die contributes its max/min power ratio and its max/min
// rated-frequency ratio.
func Fig4(e *Env) (*Fig4Result, error) {
	res := &Fig4Result{
		NumDies:   e.NumDies,
		PowerHist: stats.NewHistogram(1.2, 2.2, 10),
		FreqHist:  stats.NewHistogram(1.0, 1.6, 12),
	}
	// Fan the batch through the distributable kernel path: locally the
	// farm fills index-addressed slots, clustered the shards come back
	// from remote workers — either way the reduction below runs serially
	// in die order over byte-identical blobs.
	err := forDieRatios(e, e.NumDies, func(s dieRatiosBlob) {
		res.PowerRatio = append(res.PowerRatio, s.PowerRatio)
		res.FreqRatio = append(res.FreqRatio, s.FreqRatio)
		res.PowerHist.Add(s.PowerRatio)
		res.FreqHist.Add(s.FreqRatio)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// forDieRatios runs the die-ratios kernel over dies [0, n) of e and
// hands each die's decoded ratios to fn, serially in die order.
func forDieRatios(e *Env, n int, fn func(dieRatiosBlob)) error {
	return e.ForDiesKernel(kernelDieRatios, n, func(die int, blob []byte) error {
		var s dieRatiosBlob
		if err := json.Unmarshal(blob, &s); err != nil {
			return fmt.Errorf("experiments: die %d ratios blob: %w", die, err)
		}
		fn(s)
		return nil
	})
}

// dieRatios computes one die's max/min core power and frequency ratios.
func dieRatios(e *Env, c *chip.Chip) (powerRatio, freqRatio float64, err error) {
	corePower := make([]float64, c.NumCores())
	for core := 0; core < c.NumCores(); core++ {
		var ps []float64
		for _, app := range e.Apps() {
			st := c.OffStates()
			st[core] = chip.CoreState{App: app, V: c.Tech.VddNominal, F: c.FmaxNominal(core)}
			r, err := c.Evaluate(st, e.CPU())
			if err != nil {
				return 0, 0, err
			}
			ps = append(ps, r.CorePowerW[core])
		}
		corePower[core] = stats.Mean(ps)
	}
	freqs := make([]float64, c.NumCores())
	for core := range freqs {
		freqs[core] = c.FmaxNominal(core)
	}
	return stats.Max(corePower) / stats.Min(corePower),
		stats.Max(freqs) / stats.Min(freqs), nil
}

// MeanPowerRatio returns the batch-average power ratio.
func (r *Fig4Result) MeanPowerRatio() float64 { return stats.Mean(r.PowerRatio) }

// MeanFreqRatio returns the batch-average frequency ratio.
func (r *Fig4Result) MeanFreqRatio() float64 { return stats.Mean(r.FreqRatio) }

// Render formats both histograms.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: core-to-core variation across %d dies\n", r.NumDies)
	fmt.Fprintf(&b, "(a) max/min core power ratio: mean %.2f  (paper: ~1.53, mostly 1.4-1.7)\n",
		r.MeanPowerRatio())
	b.WriteString(r.PowerHist.Render("power ratio"))
	fmt.Fprintf(&b, "(b) max/min core frequency ratio: mean %.2f  (paper: ~1.33, mostly 1.2-1.5)\n",
		r.MeanFreqRatio())
	b.WriteString(r.FreqHist.Render("frequency ratio"))
	return b.String()
}

// Fig5Point is one sigma/mu setting's batch-mean ratios.
type Fig5Point struct {
	SigmaOverMu float64
	PowerRatio  float64
	FreqRatio   float64
}

// Fig5Result reproduces Figure 5: mean max/min core power and frequency
// ratios as Vth sigma/mu sweeps over 0.03-0.12.
type Fig5Result struct {
	Points []Fig5Point
}

// Fig5 sweeps the variation intensity. Each point re-generates the die
// batch with the new sigma/mu (dies per point are capped at NumDies).
func Fig5(e *Env) (*Fig5Result, error) {
	res := &Fig5Result{}
	for _, sm := range []float64{0.03, 0.06, 0.09, 0.12} {
		sub := *e
		sub.VarCfg.VthSigmaOverMu = sm
		// The sub-Env is no longer a stock configuration: clear the
		// cluster routing key so its dies can never be computed remotely
		// against an unmodified Env.
		sub.Scale, sub.Cluster = "", nil
		if err := sub.init(); err != nil {
			return nil, err
		}
		var prs, frs []float64
		err := forDieRatios(&sub, e.NumDies, func(s dieRatiosBlob) {
			prs = append(prs, s.PowerRatio)
			frs = append(frs, s.FreqRatio)
		})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Fig5Point{
			SigmaOverMu: sm,
			PowerRatio:  stats.Mean(prs),
			FreqRatio:   stats.Mean(frs),
		})
	}
	return res, nil
}

// Render formats the sweep.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: mean max/min core ratios vs Vth sigma/mu\n")
	fmt.Fprintf(&b, "%8s %12s %12s\n", "sigma/mu", "power ratio", "freq ratio")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%8.2f %12.2f %12.2f\n", p.SigmaOverMu, p.PowerRatio, p.FreqRatio)
	}
	return b.String()
}
