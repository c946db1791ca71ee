package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// managerRow matches one manager's summary line and captures its chip
// power in watts.
var managerRow = regexp.MustCompile(`(?m)^(\S+)\s+TP=\s*\d+ MIPS  P=\s*([0-9.]+) W`)

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "4 threads", args: []string{"-threads", "4", "-budget", "20"}},
		{name: "negative threads", args: []string{"-threads", "-1"}, wantErr: "-threads -1"},
		{name: "zero threads", args: []string{"-threads", "0"}, wantErr: "-threads 0"},
		{name: "more threads than cores", args: []string{"-threads", "25"}, wantErr: "-threads 25"},
		{name: "zero budget", args: []string{"-budget", "0"}, wantErr: "-budget 0"},
		{name: "negative budget", args: []string{"-budget", "-5"}, wantErr: "-budget -5"},
		{name: "NaN budget", args: []string{"-budget", "NaN"}, wantErr: "-budget NaN"},
		{name: "unknown flag", args: []string{"-no-such-flag"}, wantErr: "no-such-flag"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("run(%q) = %v, want an error mentioning %q", tc.args, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			rows := managerRow.FindAllStringSubmatch(out.String(), -1)
			if len(rows) != 3 {
				t.Fatalf("%d manager rows, want 3:\n%s", len(rows), out.String())
			}
			for i, want := range []string{"Foxton*", "LinOpt", "SAnn"} {
				if rows[i][1] != want {
					t.Errorf("row %d is %s, want %s", i, rows[i][1], want)
				}
				if p, err := strconv.ParseFloat(rows[i][2], 64); err != nil || p > 20 {
					t.Errorf("%s: P = %s W (%v), want at most the 20 W budget", rows[i][1], rows[i][2], err)
				}
			}
		})
	}
}
