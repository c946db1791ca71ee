package main

import (
	"fmt"
	"io"
	"math"
)

// runCompare prints, for every workload and end-to-end metric, whether the
// runs recorded in changePath are better, the same, worse or unresolved
// against those in parentPath.
func runCompare(w io.Writer, def *benchDef, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-16s %5s %14s %14s %8s  %s\n", "workload", "metric", "runs", "parent p50", "change p50", "change", "verdict")
	for _, wl := range def.Workloads {
		a, b := forWorkload(parent, wl.Name), forWorkload(change, wl.Name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, m := range def.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			qa, qb := quartiles(va), quartiles(vb)
			fmt.Fprintf(w, "%-16s %-16s %2d/%-2d %14.6g %14.6g %+7.1f%%  %s\n", wl.Name, m.Name, len(va), len(vb),
				qa[1], qb[1], 100*(qb[1]/qa[1]-1), verdict(va, vb, m))
		}
		if n := noisyRuns(a) + noisyRuns(b); n > 0 {
			fmt.Fprintf(w, "%-16s %d run(s) flagged noisy: rerun them\n", wl.Name, n)
		}
	}
	return nil
}

func forWorkload(recs []record, name string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []record, metric string) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Metrics[metric]
	}
	return out
}

func noisyRuns(recs []record) int {
	n := 0
	for _, r := range recs {
		if r.Noisy {
			n++
		}
	}
	return n
}

// minPairs is the number of run pairs a gain needs before it is claimed.
const minPairs = 10

// verdict judges the change's runs b against the parent's runs a of one
// metric by the paired-run rule: better when at least ten run pairs were
// made, the change wins nine tenths of them and the medians differ by more
// than the parent's interquartile spread; unresolved when that spread is
// wider than the metric's bound, unless every run of one side beats every
// run of the other; worse when the change's median is worse by more than
// the bound.
func verdict(a, b []float64, m metricDef) string {
	// better(x, y) reports whether x beats y in the metric's direction.
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	qa, qb := quartiles(a), quartiles(b)
	iqr := qa[2] - qa[0]
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	allBetter, allWorse := true, true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
			allWorse = allWorse && better(y, x)
		}
	}
	worse := (qb[1] - qa[1]) / qa[1]
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case pairs >= minPairs && 10*wins >= 9*pairs && better(qb[1], qa[1]) && math.Abs(qb[1]-qa[1]) > iqr:
		return "better"
	case iqr/qa[1] > m.Bound && !allBetter && !allWorse:
		return "unresolved"
	case worse > m.Bound:
		return "worse"
	}
	return "same"
}

// quartiles returns the three quartile cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method), so
// spreads read the same here as in any script that checks the runs.
func quartiles(xs []float64) [3]float64 {
	s := sortedCopy(xs)
	if len(s) == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := len(s) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}
