package diecache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"vasched/internal/varmodel"
	"vasched/internal/wire"
)

// Disk blob format, in internal/wire's little-endian field forms: a
// fixed header, the two systematic maps, and the FNV-64a checksum of
// everything before it. The key is echoed into the header so a blob
// renamed (or hash-colliding) onto the wrong path is rejected rather
// than silently served as a different die.
//
//	magic      "vdm2"
//	configHash u64
//	batchSeed  u64 (two's-complement int64)
//	die        u64 (two's-complement int64)
//	rows, cols u32
//	vthSigmaRan, leffSigmaRan f64 (IEEE bits)
//	seed       u64 (two's-complement int64)
//	vthData    rows*cols f64
//	leffData   rows*cols f64
//	checksum   FNV-64a of all preceding bytes
//
// The blob holds no config: the key's hash covers it, and the Source
// that would have generated the die supplies it on load.
const diskMagic = "vdm2"

// ErrCorrupt reports a blob that failed structural or checksum
// validation. Callers fall back to regeneration: determinism means a
// rebuilt die is bit-identical to what the blob should have held.
var ErrCorrupt = errors.New("diecache: corrupt die blob")

// maxBlobCells caps the map size a blob may claim, so a corrupt header
// cannot demand a multi-gigabyte allocation before the checksum is even
// consulted (16M cells = two 128 MiB maps).
const maxBlobCells = 16 << 20

// blobPath is the content address of a key inside dir. Seeds are
// rendered as fixed-width two's-complement hex so negative batch seeds
// produce filesystem-safe, unambiguous names.
func blobPath(dir string, key Key) string {
	name := fmt.Sprintf("%016x_%016x_%016x.die", key.ConfigHash, uint64(key.BatchSeed), uint64(int64(key.Die)))
	return filepath.Join(dir, name)
}

// encodeBlob serialises maps for key.
func encodeBlob(key Key, maps *varmodel.DieMaps) []byte {
	rows, cols := maps.VthSys.Rows, maps.VthSys.Cols
	w := wire.Writer{Buf: make([]byte, 0, 4+8*3+4*2+8*3+16*rows*cols+wire.SumLen)}
	w.Raw(diskMagic)
	w.U64(key.ConfigHash)
	w.U64(uint64(key.BatchSeed))
	w.U64(uint64(int64(key.Die)))
	w.U32(uint32(rows))
	w.U32(uint32(cols))
	w.U64(math.Float64bits(maps.VthSigmaRan))
	w.U64(math.Float64bits(maps.LeffSigmaRan))
	w.U64(uint64(maps.Seed))
	for _, v := range maps.VthSys.Data {
		w.U64(math.Float64bits(v))
	}
	for _, v := range maps.LeffSys.Data {
		w.U64(math.Float64bits(v))
	}
	return wire.AppendSum(w.Buf)
}

// decodeBlob validates data against key and reassembles the maps, with
// cfg as their Config.
func decodeBlob(data []byte, key Key, cfg varmodel.Config) (*varmodel.DieMaps, error) {
	body, err := wire.SplitSum(data, ErrCorrupt)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(body, ErrCorrupt)
	r.Magic(diskMagic)
	ch, bs, die := r.U64(), int64(r.U64()), int64(r.U64())
	if r.Err() == nil && (ch != key.ConfigHash || bs != key.BatchSeed || die != int64(key.Die)) {
		r.Failf("blob is keyed (%016x,%d,%d), want (%016x,%d,%d)",
			ch, bs, die, key.ConfigHash, key.BatchSeed, key.Die)
	}
	rows, cols := int(r.U32()), int(r.U32())
	if r.Err() == nil && (rows <= 0 || cols <= 0 || rows > maxBlobCells/cols) {
		r.Failf("implausible map shape %dx%d", rows, cols)
	}
	maps := &varmodel.DieMaps{
		Cfg:          cfg,
		VthSigmaRan:  math.Float64frombits(r.U64()),
		LeffSigmaRan: math.Float64frombits(r.U64()),
		Seed:         int64(r.U64()),
	}
	n := rows * cols
	if r.Err() == nil && r.Left() != 16*n {
		r.Failf("%d payload bytes for %dx%d maps", r.Left(), rows, cols)
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	maps.VthSys = fieldFrom(rows, cols, floats(r.Take(8*n)))
	maps.LeffSys = fieldFrom(rows, cols, floats(r.Take(8*n)))
	return maps, nil
}

// floats decodes little-endian IEEE float64 bits.
func floats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// saveBlob writes the blob atomically (tmp + rename), so a crashed or
// concurrent writer can never leave a torn file a later reader would
// have to distrust: readers see either nothing or a complete blob, and
// the checksum backstops everything else.
func saveBlob(dir string, key Key, maps *varmodel.DieMaps) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	data := encodeBlob(key, maps)
	path := blobPath(dir, key)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp")
	if err != nil {
		return 0, err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return len(data), nil
}

// loadBlob reads and validates the blob for key, completing it with
// cfg. A missing file returns (nil, 0, nil); a present-but-invalid one
// returns ErrCorrupt.
func loadBlob(dir string, key Key, cfg varmodel.Config) (*varmodel.DieMaps, int, error) {
	data, err := os.ReadFile(blobPath(dir, key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	maps, err := decodeBlob(data, key, cfg)
	if err != nil {
		return nil, 0, err
	}
	return maps, len(data), nil
}
