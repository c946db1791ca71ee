package jobstore

import (
	"bytes"
	"testing"

	"vasched/internal/tenant"
)

// FuzzWALRecord fuzzes the WAL record decoder. Properties under test:
//
//  1. No input panics or over-allocates (every length field is bounded
//     by the buffer before allocation).
//  2. Any accepted input re-encodes to the exact input bytes — the
//     format has a canonical encoding, which is what makes the FNV
//     integrity checksum meaningful end to end.
//  3. Truncating an accepted input or flipping any of its bits makes
//     it rejected: a damaged record can only fail replay loudly, never
//     load as garbage.
//
// The committed corpus under testdata/fuzz/FuzzWALRecord seeds one
// valid frame per record kind plus classic breakages; `make fuzzseed`
// runs the target for 10s in CI and the nightly workflow for 5m.
func FuzzWALRecord(f *testing.F) {
	f.Add(mustEncode(f, &Record{Kind: KindSubmit, ID: 1, Unix: 1700000000, Tenant: "acme",
		Lane: tenant.LaneInteractive, Experiment: "fig4", Scale: "quick", Workers: 4}))
	f.Add(mustEncode(f, &Record{Kind: KindSubmit, ID: 2, Unix: 1700000001, Tenant: "acme",
		Lane: tenant.LaneBatch, Experiment: "ext-adapt", Scale: "quick",
		Params: []byte(`{"metric":"power-ratio","rel_ci":0.02}`)}))
	f.Add(mustEncode(f, &Record{Kind: KindClaim, ID: 1, Epoch: 2, Coord: "pod-1", Unix: 1}))
	f.Add(mustEncode(f, &Record{Kind: KindComplete, ID: 1, Epoch: 2, Coord: "pod-1",
		Status: statusCodeDone, Rendered: []byte("Figure 4"), Result: []byte(`{"ok":true}`)}))
	f.Add(mustEncode(f, &Record{Kind: KindEpoch, Epoch: 7, Coord: "pod-2"}))
	f.Add(mustEncode(f, &Record{Kind: KindShutdown, Epoch: 7, Coord: "pod-2"}))
	f.Add([]byte{})
	f.Add([]byte("vjl1")) // previous format version: magic now rejected
	f.Add([]byte("vjl2"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecord(data)
		if err != nil {
			return
		}
		re, err := EncodeRecord(r)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(re, data) {
			t.Fatalf("record is not canonical:\n in: %x\nout: %x", data, re)
		}
		// A valid record must reject every truncation and any single
		// byte-level corruption (spot-check a few positions to keep the
		// fuzz loop fast).
		if _, err := DecodeRecord(data[:len(data)-1]); err == nil {
			t.Fatal("truncated record accepted")
		}
		for _, i := range []int{0, len(data) / 2, len(data) - 1} {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x01
			if _, err := DecodeRecord(bad); err == nil {
				t.Fatalf("bit flip at %d accepted", i)
			}
		}
	})
}
