package main

import (
	"math"
	"sort"
	"sync"
	"time"

	"vasched/internal/trace"
)

// percentile returns the p-quantile of sorted by nearest rank, rounding
// up: with 100 values p90 is the 91st, so the 9 values above it are the
// samples "beyond" the percentile. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Floor(p * float64(len(sorted))))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs in ascending order without modifying it.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// selfTimes returns each span's self time: its duration minus the union
// of its children's intervals, clipped to the span. Taking the union, not
// the sum, keeps self time non-negative when children overlap, such as
// siblings that ran concurrently.
func selfTimes(spans []trace.Span) []time.Duration {
	type interval struct{ lo, hi time.Duration }
	children := make(map[uint64][]interval, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.Start + s.Dur})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		lo, hi := s.Start, s.Start+s.Dur
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].lo < kids[b].lo })
		covered, end := time.Duration(0), lo
		for _, k := range kids {
			a, b := max(k.lo, end), min(k.hi, hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		out[i] = s.Dur - covered
	}
	return out
}

// layerStat accumulates one layer's spans over a run.
type layerStat struct {
	calls     int
	dur, self time.Duration
}

// layerAgg rolls up the spans of every traced unit of a run by layer.
// Units run concurrently, so add is synchronised.
type layerAgg struct {
	mu     sync.Mutex
	layers map[string]*layerStat
	// unit is the summed duration of the units' root spans: the base of
	// every share.
	unit     time.Duration
	units    int
	warmHits int
	dropped  int
}

func newLayerAgg() *layerAgg { return &layerAgg{layers: map[string]*layerStat{}} }

// unitSpan names the root span the benchmark opens around each unit.
const unitSpan = "bench.unit"

// add folds one unit's spans, and the number its tracer dropped, in.
// Power-manager decisions are split by manager, so the SAnn tail and the
// LinOpt warm starts show separately.
func (a *layerAgg) add(spans []trace.Span, dropped int) {
	self := selfTimes(spans)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.dropped += dropped
	for i, s := range spans {
		key := s.Name
		switch s.Name {
		case unitSpan:
			a.unit += s.Dur
			a.units++
		case "pm.decide":
			key += "." + managerKey(attr(s, "manager"))
			if attr(s, "warm") == "hit" {
				a.warmHits++
			}
		}
		st := a.layers[key]
		if st == nil {
			st = &layerStat{}
			a.layers[key] = st
		}
		st.calls++
		st.dur += s.Dur
		st.self += self[i]
	}
}

// attr returns the value of a span attribute, or "".
func attr(s trace.Span, key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// managerKey maps a power manager's paper name to its metric segment.
func managerKey(name string) string {
	switch name {
	case "Foxton*":
		return "foxton"
	case "LinOpt":
		return "linopt"
	case "SAnn":
		return "sann"
	}
	return "other"
}

// layerMetrics turns the roll-up into the per-layer metrics: calls per
// unit, mean span duration, and self time as a share of unit time.
func (a *layerAgg) layerMetrics(m map[string]float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	get := func(k string) layerStat {
		if st := a.layers[k]; st != nil {
			return *st
		}
		return layerStat{}
	}
	perUnit := func(n int) float64 { return ratio(float64(n), float64(a.units)) }
	share := func(d time.Duration) float64 { return ratio(d.Seconds(), a.unit.Seconds()) }
	mean := func(st layerStat, unit time.Duration) float64 {
		return ratio(st.dur.Seconds(), float64(st.calls)*unit.Seconds())
	}
	for _, l := range []struct {
		name   string
		unit   time.Duration
		suffix string
	}{
		{"varmodel.die", time.Millisecond, "ms_mean"},
		{"chip.build", time.Millisecond, "ms_mean"},
		{"chip.evaluate", time.Microsecond, "us_mean"},
		{"sched.assign", time.Microsecond, "us_mean"},
		{"dynamic.step", time.Microsecond, "us_mean"},
	} {
		st := get(l.name)
		m[l.name+".calls_per_unit"] = perUnit(st.calls)
		m[l.name+"."+l.suffix] = mean(st, l.unit)
		m[l.name+".share"] = share(st.self)
	}
	run := get("core.run")
	m["core.run.calls_per_unit"] = perUnit(run.calls)
	m["core.run.ms_mean"] = mean(run, time.Millisecond)
	m["core.self.share"] = share(run.self)
	var decide time.Duration
	linopt := 0
	for _, k := range []string{"foxton", "linopt", "sann"} {
		st := get("pm.decide." + k)
		m["pm.decide."+k+".calls_per_unit"] = perUnit(st.calls)
		m["pm.decide."+k+".us_mean"] = mean(st, time.Microsecond)
		decide += st.self
		if k == "linopt" {
			linopt = st.calls
		}
	}
	m["pm.decide.share"] = share(decide)
	m["pm.linopt.warm_hit_frac"] = ratio(float64(a.warmHits), float64(linopt))
	m["dynamic.rebuild.share"] = share(get("dynamic.horizon").self)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
