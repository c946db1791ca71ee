package diecache

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"vasched/internal/varmodel"
	"vasched/internal/wire"
)

// fuzzKey is the key every fuzzed blob is decoded under: the one a
// cache gives die 3 of batch 1 of the default model tuple, whose
// ConfigHash is its first coordinate.
func fuzzKey() Key {
	vc, dc, pm, tc := modelConfigs()
	return Key{ConfigHash: ConfigHash(vc, dc, pm, tc), BatchSeed: 1, Die: 3}
}

// tinyMaps is a 2×2 die whose blob is small enough to mutate quickly.
func tinyMaps() *varmodel.DieMaps {
	return &varmodel.DieMaps{
		VthSys:       fieldFrom(2, 2, []float64{0.1, 0.2, 0.3, 0.4}),
		LeffSys:      fieldFrom(2, 2, []float64{1, 2, 3, 4}),
		VthSigmaRan:  0.01,
		LeffSigmaRan: 0.02,
		Seed:         7,
	}
}

// reseal replaces blob's checksum with a valid one for its damaged body,
// so the structural checks behind the checksum are what must fire.
func reseal(blob []byte) []byte {
	return wire.AppendSum(append([]byte{}, blob[:len(blob)-wire.SumLen]...))
}

// FuzzConfigHash fuzzes the die-blob decoder under fuzzKey: the disk
// layer that every key ConfigHash names is read back through. Properties
// under test:
//
//  1. No input panics or over-allocates: lengths and the map shape are
//     bounded by the bytes present before anything is allocated.
//  2. Any blob the decoder accepts re-encodes to the exact same bytes,
//     and carries the caller's config: the format is canonical, which
//     is what makes its checksum meaningful end to end.
//
// The committed corpus under testdata/fuzz/FuzzConfigHash seeds valid
// blobs and classic breakages (see TestRegenerateFuzzCorpus); `make
// fuzzseed` runs the target for 10s in CI and the nightly workflow runs
// it longer.
func FuzzConfigHash(f *testing.F) {
	key := fuzzKey()
	blob := encodeBlob(key, tinyMaps())
	other := key
	other.Die++
	badMagic := append([]byte("vdm1"), blob[4:]...)
	flipped := append([]byte{}, blob...)
	flipped[len(flipped)/2] ^= 0x40
	hugeRows := append([]byte{}, blob...)
	hugeRows[4+8*3+3] = 0x40

	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(append(append([]byte{}, blob...), 0xff))
	f.Add(encodeBlob(other, tinyMaps()))
	f.Add(reseal(badMagic))
	f.Add(flipped)
	f.Add(reseal(hugeRows))
	f.Add([]byte{})
	f.Add([]byte(diskMagic))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	cfg := varmodel.DefaultConfig()
	f.Fuzz(func(t *testing.T, data []byte) {
		maps, err := decodeBlob(data, key, cfg)
		if err != nil {
			return
		}
		if re := encodeBlob(key, maps); !bytes.Equal(re, data) {
			t.Fatalf("blob encoding is not canonical:\n in: %x\nout: %x", data, re)
		}
		if !reflect.DeepEqual(maps.Cfg, cfg) {
			t.Fatal("accepted blob does not carry the caller's config")
		}
	})
}

// TestRegenerateFuzzCorpus rewrites the committed corpus under
// testdata/fuzz/FuzzConfigHash. It is a maintenance tool, not a check:
// run
//
//	DIECACHE_REGEN_CORPUS=1 go test ./internal/diecache -run TestRegenerateFuzzCorpus
//
// after changing the blob format or any model config struct (which
// moves fuzzKey), then commit the result.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("DIECACHE_REGEN_CORPUS") == "" {
		t.Skip("set DIECACHE_REGEN_CORPUS=1 to rewrite testdata/fuzz/FuzzConfigHash")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzConfigHash")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name string, data []byte) {
		t.Helper()
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	key := fuzzKey()
	blob := encodeBlob(key, tinyMaps())
	write("seed_die_blob", blob)
	write("seed_truncated", blob[:len(blob)/2])
	write("seed_trailing", append(append([]byte{}, blob...), 0xff))
	write("seed_bad_version", reseal(append([]byte("vdm1"), blob[4:]...)))
	write("seed_empty", nil)
	write("seed_garbage", bytes.Repeat([]byte{0xff}, 8))

	// A real die of the default model, on an 8×8 grid to keep the file
	// small.
	cfg := varmodel.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 8, 8
	g, err := varmodel.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	maps, err := g.Die(key.BatchSeed, key.Die)
	if err != nil {
		t.Fatal(err)
	}
	write("seed_model_tuple", encodeBlob(key, maps))

	// The tiny die keyed by a tuple whose thermal config differs in one
	// field: its key echo must refuse it.
	vc, dc, pm, tc := modelConfigs()
	tc.AmbientC++
	write("seed_single_thermal", encodeBlob(Key{ConfigHash: ConfigHash(vc, dc, pm, tc), BatchSeed: key.BatchSeed, Die: key.Die}, tinyMaps()))
}
