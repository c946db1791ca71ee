// Command linopt demonstrates the power managers head to head on one
// frozen scheduling instant: it builds a die, places a workload with
// VarF&AppIPC, and prints the (V, f) assignment, modelled throughput, and
// solve time of Foxton*, LinOpt, and SAnn side by side for a given power
// budget.
//
// Usage:
//
//	linopt [-threads 20] [-budget 75] [-die 0]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"vasched/internal/chip"
	"vasched/internal/core"
	"vasched/internal/cpusim"
	"vasched/internal/delay"
	"vasched/internal/floorplan"
	"vasched/internal/pm"
	"vasched/internal/power"
	"vasched/internal/stats"
	"vasched/internal/thermal"
	"vasched/internal/varmodel"
	"vasched/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "linopt:", err)
		os.Exit(1)
	}
}

// run is the testable CLI core: parse and check args, freeze one
// scheduling instant, and print each manager's decision to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("linopt", flag.ContinueOnError)
	var (
		threads = fs.Int("threads", 20, "number of threads (at most one per core)")
		budgetW = fs.Float64("budget", 75, "chip power target in watts")
		die     = fs.Int("die", 0, "die index")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fp := floorplan.New20CoreCMP()
	if *threads < 1 || *threads > fp.NumCores {
		return fmt.Errorf("-threads %d: want 1 to %d threads, one per core", *threads, fp.NumCores)
	}
	if !(*budgetW > 0) {
		return fmt.Errorf("-budget %v: want a positive power target in watts", *budgetW)
	}

	cfg := varmodel.DefaultConfig()
	gen, err := varmodel.NewGenerator(cfg)
	if err != nil {
		return err
	}
	maps, err := gen.Die(1, *die)
	if err != nil {
		return err
	}
	c, err := chip.Build(maps, fp, delay.DefaultConfig(), power.DefaultModel(cfg.Tech), thermal.DefaultConfig())
	if err != nil {
		return err
	}
	cpu, err := cpusim.New(cpusim.DefaultCoreConfig(), workload.SPEC())
	if err != nil {
		return err
	}
	apps := workload.Mix(stats.NewRNG(3), *threads)
	snap, err := core.FrozenSnapshot(c, cpu, apps, 7)
	if err != nil {
		return err
	}
	b := pm.Budget{PTargetW: *budgetW, PCoreMaxW: 2 * *budgetW / float64(*threads)}
	fmt.Fprintf(stdout, "%d threads, Ptarget %.0f W, Pcoremax %.1f W, uncore %.1f W\n\n",
		*threads, b.PTargetW, b.PCoreMaxW, snap.Uncore)

	if sens, err := pm.BudgetSensitivity(snap, b, pm.ObjMIPS); err == nil {
		fmt.Fprintf(stdout, "budget shadow price: one extra watt buys ~%.0f MIPS at this point\n\n", sens)
	}

	mips := snap.ObjCoef(pm.ObjMIPS, nil)
	managers := []pm.Manager{pm.NewFoxton(), pm.NewLinOpt(), pm.SAnn{MaxEvals: 50000}}
	for _, m := range managers {
		start := time.Now()
		levels, err := m.Decide(context.Background(), snap, b, stats.NewRNG(9))
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprintf(stdout, "%-10s  TP=%8.0f MIPS  P=%6.1f W  solve=%-12v\n", m.Name(),
			snap.ObjectiveValue(levels, pm.ObjMIPS, mips), snap.TotalPower(levels), elapsed.Round(time.Microsecond))
		fmt.Fprint(stdout, "  V per core:")
		for _, l := range levels {
			fmt.Fprintf(stdout, " %.2f", snap.Volt[l])
		}
		fmt.Fprintln(stdout)
	}
	return nil
}
