package main

import (
	"strings"
	"testing"
)

// TestRenderSmallChip renders a 4-core die on a coarse grid — fast enough
// for a unit test — and checks the map geometry and per-core table.
func TestRenderSmallChip(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-cores", "4", "-grid", "64", "-die", "1", "-seed", "7"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "die 1 (batch seed 7, sigma/mu 0.12, 4 cores)") {
		t.Fatalf("header missing:\n%s", out)
	}

	// The heat map is 40 lines of 40 ramp characters.
	lines := strings.Split(out, "\n")
	mapLines := 0
	for _, l := range lines {
		if len(l) == 40 && strings.Trim(l, " .:-=+*%#") == "" {
			mapLines++
		}
	}
	if mapLines != 40 {
		t.Fatalf("heat map has %d full-width lines, want 40:\n%s", mapLines, out)
	}

	// Exactly cores C1..C4 in the characterisation table, each with a
	// plausible Fmax and a voltage-level column.
	for _, core := range []string{"C1", "C2", "C3", "C4"} {
		if !strings.Contains(out, core+" ") {
			t.Errorf("table missing %s:\n%s", core, out)
		}
	}
	if strings.Contains(out, "C5 ") {
		t.Fatalf("table has more cores than requested:\n%s", out)
	}
	if !strings.Contains(out, "V\n") {
		t.Fatalf("min feasible level column missing:\n%s", out)
	}
}

// TestRenderDeterministic: same flags, same bytes — the die map is a pure
// function of (seed, die, sigma, cores, grid).
func TestRenderDeterministic(t *testing.T) {
	var a, b strings.Builder
	args := []string{"-cores", "4", "-grid", "64", "-die", "3", "-seed", "5"}
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two renders of the same die differ")
	}
}

func TestRunErrors(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-cores", "0"}, &buf); err == nil {
		t.Fatal("zero cores accepted")
	}
	if err := run([]string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := run([]string{"-sigma", "9"}, &buf); err == nil {
		t.Fatal("absurd sigma accepted")
	}
	if err := run([]string{"-die", "-1", "-grid", "64"}, &buf); err == nil || !strings.Contains(err.Error(), "outside [0, 1000003)") {
		t.Fatalf("negative die index: error %v, want the valid range", err)
	}
}
