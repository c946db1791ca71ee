package diecache

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vasched/internal/delay"
	"vasched/internal/power"
	"vasched/internal/tech"
	"vasched/internal/thermal"
	"vasched/internal/varmodel"
)

// modelConfigs returns the full configuration set a cache key covers —
// the same tuple experiments.Env hashes.
func modelConfigs() (varmodel.Config, delay.Config, power.Model, thermal.Config) {
	return varmodel.DefaultConfig(), delay.DefaultConfig(), power.DefaultModel(tech.Default()), thermal.DefaultConfig()
}

func mustHash(t *testing.T, vc varmodel.Config, dc delay.Config, pm power.Model, tc thermal.Config) uint64 {
	t.Helper()
	return ConfigHash(vc, dc, pm, tc)
}

// TestConfigHashEqualsSemanticEquality is the key invariant the cache
// rests on: hash equality iff config equality. Equal tuples hash equal;
// mutating any single exported field — walked recursively via reflection
// so a newly added field can never be silently excluded — changes the
// hash.
func TestConfigHashEqualsSemanticEquality(t *testing.T) {
	vc, dc, pm, tc := modelConfigs()
	base := mustHash(t, vc, dc, pm, tc)

	vcB, dcB, pmB, tcB := modelConfigs()
	if got := mustHash(t, vcB, dcB, pmB, tcB); got != base {
		t.Fatalf("equal configs hash differently: %016x vs %016x", got, base)
	}

	// mutate flips one leaf field at a time and re-hashes the tuple.
	vals := []any{&vc, &dc, &pm, &tc}
	hashAll := func() uint64 {
		return mustHash(t, vc, dc, pm, tc)
	}
	var walk func(rv reflect.Value, path string)
	leaves := 0
	walk = func(rv reflect.Value, path string) {
		switch rv.Kind() {
		case reflect.Struct:
			for i := 0; i < rv.NumField(); i++ {
				f := rv.Type().Field(i)
				if !f.IsExported() {
					continue
				}
				walk(rv.Field(i), path+"."+f.Name)
			}
		case reflect.Float64:
			old := rv.Float()
			rv.SetFloat(old + 1.5)
			if hashAll() == base {
				t.Errorf("mutating %s did not change the hash", path)
			}
			rv.SetFloat(old)
			leaves++
		case reflect.Int, reflect.Int64:
			old := rv.Int()
			rv.SetInt(old + 3)
			if hashAll() == base {
				t.Errorf("mutating %s did not change the hash", path)
			}
			rv.SetInt(old)
			leaves++
		default:
			t.Fatalf("unexpected config leaf kind %s at %s", rv.Kind(), path)
		}
	}
	for _, v := range vals {
		rv := reflect.ValueOf(v).Elem()
		walk(rv, rv.Type().String())
	}
	if leaves < 20 {
		t.Fatalf("walked only %d leaf fields; config reflection walk looks broken", leaves)
	}
	if got := hashAll(); got != base {
		t.Fatalf("mutation walk did not restore configs: %016x vs %016x", got, base)
	}
}

// TestSaveBlobErrors covers the write-side failure path: a blob
// directory that collides with an existing file.
func TestSaveBlobErrors(t *testing.T) {
	base := t.TempDir()
	file := filepath.Join(base, "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	maps := &varmodel.DieMaps{
		VthSys:  fieldFrom(1, 1, []float64{1}),
		LeffSys: fieldFrom(1, 1, []float64{2}),
	}
	if _, err := saveBlob(filepath.Join(file, "sub"), Key{}, maps); err == nil {
		t.Error("saveBlob into a file-as-directory path succeeded")
	}
}

// TestBlobMatchesGenerator: a die read back from a vdm2 blob, completed
// with its Source's config, is the die the generator returns, config
// included.
func TestBlobMatchesGenerator(t *testing.T) {
	cfg := varmodel.DefaultConfig()
	cfg.GridRows, cfg.GridCols = 32, 32
	g, err := varmodel.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for die := 0; die < 3; die++ {
		want, err := g.Die(5, die)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		key := Key{ConfigHash: 11, BatchSeed: 5, Die: die}
		if _, err := saveBlob(dir, key, want); err != nil {
			t.Fatal(err)
		}
		got, _, err := loadBlob(dir, key, g.Config())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("die %d read back from its blob differs from the generated die", die)
		}
	}
}
