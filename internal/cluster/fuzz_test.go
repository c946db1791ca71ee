package cluster

import (
	"bytes"
	"testing"
)

// FuzzShardCodec fuzzes both wire-format decoders with one shared input
// space. Properties under test:
//
//  1. No input panics or over-allocates (the decode caps bound every
//     allocation by the payload length).
//  2. Any accepted request/response re-encodes to the exact input bytes
//     (the format has a canonical encoding, which is what makes the
//     integrity checksum meaningful end to end).
//
// The committed corpus under testdata/fuzz/FuzzShardCodec seeds valid
// payloads of both kinds plus classic breakages; `make fuzzseed` runs
// the target for 10s in CI.
func FuzzShardCodec(f *testing.F) {
	f.Add(mustRequest(f, &ShardRequest{Kernel: "die-ratios", Scale: "quick", Seed: 2008, BatchSeed: 1, Dies: []int{0, 1, 2}}))
	f.Add(mustRequest(f, &ShardRequest{Kernel: "sched-pm", Scale: "default", Seed: -1, BatchSeed: 9, Dies: []int{199}}))
	f.Add(mustRequest(f, &ShardRequest{}))
	f.Add(mustResponse(f, &ShardResponse{Blobs: [][]byte{[]byte(`{"pr":1.5,"fr":1.2}`), {}}}))
	f.Add(mustResponse(f, &ShardResponse{}))
	f.Add([]byte{})
	f.Add([]byte("vcq1"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeRequest(data); err == nil {
			re, err := EncodeRequest(req)
			if err != nil {
				t.Fatalf("accepted request does not re-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("request is not canonical:\n in: %x\nout: %x", data, re)
			}
		}
		if resp, err := DecodeResponse(data); err == nil {
			re, err := EncodeResponse(resp)
			if err != nil {
				t.Fatalf("accepted response does not re-encode: %v", err)
			}
			if !bytes.Equal(re, data) {
				t.Fatalf("response is not canonical:\n in: %x\nout: %x", data, re)
			}
		}
	})
}
