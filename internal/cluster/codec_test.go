package cluster

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"

	"vasched/internal/wire"
)

func mustRequest(t testing.TB, r *ShardRequest) []byte {
	t.Helper()
	b, err := EncodeRequest(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustResponse(t testing.TB, r *ShardResponse) []byte {
	t.Helper()
	b, err := EncodeResponse(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []*ShardRequest{
		{Kernel: "die-ratios", Scale: "quick", Seed: 2008, BatchSeed: 1, Dies: []int{0, 1, 2, 7}},
		{Kernel: "", Scale: "", Seed: -5, BatchSeed: -9, Dies: nil},
		{Kernel: "sched-pm", Scale: "default", Seed: 1 << 40, BatchSeed: -(1 << 40), Dies: []int{199}},
	}
	for _, req := range cases {
		buf := mustRequest(t, req)
		got, err := DecodeRequest(buf)
		if err != nil {
			t.Fatalf("decode(%+v): %v", req, err)
		}
		if got.Kernel != req.Kernel || got.Scale != req.Scale || got.Seed != req.Seed || got.BatchSeed != req.BatchSeed {
			t.Fatalf("round trip mangled header: %+v -> %+v", req, got)
		}
		if len(got.Dies) != len(req.Dies) || (len(req.Dies) > 0 && !reflect.DeepEqual(got.Dies, req.Dies)) {
			t.Fatalf("round trip mangled dies: %v -> %v", req.Dies, got.Dies)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []*ShardResponse{
		{Blobs: [][]byte{[]byte("a"), []byte(""), []byte("hello world")}},
		{Blobs: nil},
		{Blobs: [][]byte{bytes.Repeat([]byte{0xab}, 4096)}},
	}
	for _, resp := range cases {
		buf := mustResponse(t, resp)
		got, err := DecodeResponse(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(got.Blobs) != len(resp.Blobs) {
			t.Fatalf("blob count %d != %d", len(got.Blobs), len(resp.Blobs))
		}
		for i := range resp.Blobs {
			if !bytes.Equal(got.Blobs[i], resp.Blobs[i]) {
				t.Fatalf("blob %d mangled", i)
			}
		}
	}
}

// TestDecodeMalformed feeds the decoders systematically broken payloads:
// all must come back ErrCorrupt, none may panic or over-allocate.
func TestDecodeMalformed(t *testing.T) {
	goodReq := mustRequest(t, &ShardRequest{Kernel: "k", Scale: "quick", Seed: 1, BatchSeed: 2, Dies: []int{1, 2, 3}})
	goodResp := mustResponse(t, &ShardResponse{Blobs: [][]byte{[]byte("xy"), []byte("z")}})

	check := func(name string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: decode accepted malformed payload", name)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: error %v is not ErrCorrupt", name, err)
		}
	}

	// Truncations at every length.
	for i := 0; i < len(goodReq); i++ {
		_, err := DecodeRequest(goodReq[:i])
		check("request truncation", err)
	}
	for i := 0; i < len(goodResp); i++ {
		_, err := DecodeResponse(goodResp[:i])
		check("response truncation", err)
	}
	// Single-bit corruption anywhere must fail the checksum (or a later
	// structural check).
	for i := 0; i < len(goodReq); i++ {
		bad := append([]byte(nil), goodReq...)
		bad[i] ^= 0x40
		if _, err := DecodeRequest(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	// Wrong magic (with a valid checksum).
	swapped := append([]byte(nil), goodResp[:len(goodResp)-wire.SumLen]...)
	copy(swapped, reqMagic)
	_, err := DecodeResponse(wire.AppendSum(swapped))
	check("response with request magic", err)
	// Huge length fields with valid checksums must be rejected by the
	// structural caps, not by an attempted allocation.
	huge := append([]byte(respMagic), 0xff, 0xff, 0xff, 0x7f) // ~2^31 blobs
	_, err = DecodeResponse(wire.AppendSum(huge))
	check("huge blob count", err)
	// Trailing garbage behind a valid body.
	trailing := append([]byte(nil), goodReq[:len(goodReq)-wire.SumLen]...)
	trailing = append(trailing, 0xde, 0xad)
	_, err = DecodeRequest(wire.AppendSum(trailing))
	check("trailing bytes", err)
	// Empty and tiny payloads.
	for _, b := range [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0}, wire.SumLen)} {
		if _, err := DecodeRequest(b); err == nil {
			t.Fatal("tiny request accepted")
		}
		if _, err := DecodeResponse(b); err == nil {
			t.Fatal("tiny response accepted")
		}
	}
}

// TestEncodeDeterministic pins that encoding is a pure function — the
// checksum layer depends on it.
func TestEncodeDeterministic(t *testing.T) {
	req := &ShardRequest{Kernel: "die-ratios", Scale: "default", Seed: 3, BatchSeed: 4, Dies: []int{5, 6}}
	if !bytes.Equal(mustRequest(t, req), mustRequest(t, req)) {
		t.Fatal("request encoding varies")
	}
	resp := &ShardResponse{Blobs: [][]byte{[]byte("b0"), []byte("b1")}}
	if !bytes.Equal(mustResponse(t, resp), mustResponse(t, resp)) {
		t.Fatal("response encoding varies")
	}
}

// Golden shard messages: coordinators and workers built from different
// commits of the same format talk to each other, so these bytes never
// change without a new magic.
const (
	goldenRequest  = "766371320a006469652d726174696f730500717569636bd807000000000000ffffffffffffffffefcdab8967452301030000000000000007000000c7000000429e56cbdee82a28"
	goldenResponse = "76637231030000000a0000007b227072223a312e357d00000000010000007acb1a24687bc12bf5"
)

// TestShardGoldenBytes pins the vcq2 request and vcr1 response byte for
// byte on both sides: encoding gives the golden bytes and decoding them
// gives the message back.
func TestShardGoldenBytes(t *testing.T) {
	req := &ShardRequest{Kernel: "die-ratios", Scale: "quick", Seed: 2008, BatchSeed: -1,
		ConfigHash: 0x0123456789abcdef, Dies: []int{0, 7, 199}}
	resp := &ShardResponse{Blobs: [][]byte{[]byte(`{"pr":1.5}`), {}, []byte("z")}}
	if got := hex.EncodeToString(mustRequest(t, req)); got != goldenRequest {
		t.Fatalf("request encodes to %s, want %s", got, goldenRequest)
	}
	if got := hex.EncodeToString(mustResponse(t, resp)); got != goldenResponse {
		t.Fatalf("response encodes to %s, want %s", got, goldenResponse)
	}
	b, _ := hex.DecodeString(goldenRequest)
	if got, err := DecodeRequest(b); err != nil || !reflect.DeepEqual(got, req) {
		t.Fatalf("golden request decodes to %+v, %v", got, err)
	}
	b, _ = hex.DecodeString(goldenResponse)
	if got, err := DecodeResponse(b); err != nil || !reflect.DeepEqual(got, resp) {
		t.Fatalf("golden response decodes to %+v, %v", got, err)
	}
}

// TestEncodeRefusesOverCap: the encoders refuse what the decoders would
// reject, so a coordinator never sends a shard no worker can read.
func TestEncodeRefusesOverCap(t *testing.T) {
	if _, err := EncodeRequest(&ShardRequest{Kernel: string(make([]byte, maxNameLen+1))}); !errors.Is(err, wire.ErrTooLong) {
		t.Fatalf("over-long kernel name: %v", err)
	}
}

// BenchmarkShardCodec encodes and decodes a 16-die request and its
// response of 16 result blobs, the codec's share of one dispatch with
// no I/O.
func BenchmarkShardCodec(b *testing.B) {
	req := &ShardRequest{Kernel: "die-ratios", Scale: "default", Seed: 2008, BatchSeed: 1, ConfigHash: 0x0123456789abcdef}
	resp := &ShardResponse{}
	for d := 0; d < 16; d++ {
		req.Dies = append(req.Dies, d)
		resp.Blobs = append(resp.Blobs, bytes.Repeat([]byte{byte(d)}, 256))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rq, err := EncodeRequest(req)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeRequest(rq); err != nil {
			b.Fatal(err)
		}
		rs, err := EncodeResponse(resp)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeResponse(rs); err != nil {
			b.Fatal(err)
		}
	}
}
