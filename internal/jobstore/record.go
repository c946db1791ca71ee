// Package jobstore is the durable job layer of the vaschedd platform:
// an append-only, checksummed write-ahead log with segment rotation and
// boot-time replay, plus a Store API (submit / claim / complete /
// cancel) with lease/epoch fencing so multiple stateless coordinators
// can replay the same log and share one worker fleet.
//
// Wire format (this file): every WAL record is one self-contained frame
//
//	magic "vjl2" | u32 payload length | payload | FNV-64a checksum
//
// in internal/wire's field forms, where the checksum covers everything
// before it. Payloads have a canonical encoding —
// DecodeRecord(EncodeRecord(r)) round-trips byte-for-byte — which is
// what makes the checksum meaningful end to end and what FuzzWALRecord
// verifies. The writer refuses any field over the cap the reader
// enforces, so a record the store appends always replays. Decoders
// never trust length fields: every allocation is bounded by the buffer,
// truncation is reported as ErrTorn (recoverable only at the tail of
// the final segment), and any other malformation is ErrCorrupt, which
// fails replay loudly rather than loading garbage.
package jobstore

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vasched/internal/tenant"
	"vasched/internal/wire"
)

// recMagic tags every WAL frame; the trailing digit is the format
// version and bumps on any incompatible change. v2 added the submit
// Params blob (experiment-specific options, e.g. adaptive sampling).
const recMagic = "vjl2"

// Field caps. The writer refuses and the reader rejects anything over
// them, and they bound allocation on malformed input; all are far above
// what the service writes (experiment names are short, and rendered
// reports / result JSON are small documents). Complete cuts an error
// text to maxErrLen rather than fail the job's completion.
const (
	maxNameLen    = 1 << 10   // tenant / lane / experiment / scale / coordinator strings
	maxErrLen     = 1<<16 - 1 // error messages: the most a u16 length counts
	maxBlobLen    = 1 << 26   // rendered report or result JSON
	maxPayloadLen = 1 << 27   // whole record payload
	headerLen     = 4 + 4     // magic + payload length
)

// ErrCorrupt is returned for any malformed record — bad magic, length
// fields that overrun the payload, out-of-range enums, trailing bytes,
// or an integrity-checksum mismatch. Replay treats it as fatal: a log
// that fails its checksums is surfaced to the operator, never loaded
// partially.
var ErrCorrupt = errors.New("jobstore: corrupt record")

// ErrTorn is returned when a buffer ends mid-frame. It is the
// signature of a crash during append, and is recoverable only at the
// tail of the final segment (the torn frame is dropped and truncated);
// anywhere else it is corruption.
var ErrTorn = errors.New("jobstore: torn record")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

// Kind discriminates WAL record types.
type Kind uint8

const (
	// KindSubmit creates a job in the queued state.
	KindSubmit Kind = 1
	// KindClaim moves a queued job to running under (coord, epoch).
	KindClaim Kind = 2
	// KindComplete moves a running job (or, for cancels of queued
	// jobs, a queued one) to a terminal state, carrying the rendered
	// report and result JSON.
	KindComplete Kind = 3
	// KindEpoch records a coordinator acquiring a new, strictly
	// increasing epoch; all older epochs are fenced from that point.
	KindEpoch Kind = 4
	// KindShutdown marks a clean coordinator shutdown, so replay can
	// distinguish crash recovery from a clean restart.
	KindShutdown Kind = 5

	kindMax = KindShutdown
)

// Record is one WAL entry. All kinds share the struct; fields unused
// by a kind are zero and still round-trip canonically.
type Record struct {
	Kind  Kind
	ID    uint64 // job ID (submit / claim / complete)
	Epoch uint64 // claim / complete / epoch / shutdown
	Unix  int64  // event time, Unix nanoseconds

	Coord      string // claim / complete / epoch / shutdown
	Tenant     string // submit
	Lane       tenant.Lane
	Experiment string // submit
	Scale      string // submit
	Workers    uint32 // submit
	Params     []byte // submit: experiment-specific options JSON (may be empty)

	Status   uint8  // complete: one of the status* codes below
	Error    string // complete (failed / cancelled)
	Rendered []byte // complete: rendered report
	Result   []byte // complete: result JSON
}

// Status codes carried by KindComplete records.
const (
	statusCodeDone      = 1
	statusCodeFailed    = 2
	statusCodeCancelled = 3
)

// EncodeRecord serialises one record as a framed, checksummed WAL
// entry. A field over its cap, or a payload over maxPayloadLen, is an
// error wrapping wire.ErrTooLong.
func EncodeRecord(r *Record) ([]byte, error) {
	w := wire.Writer{Buf: make([]byte, 0, headerLen+64+len(r.Coord)+len(r.Tenant)+len(r.Experiment)+
		len(r.Scale)+len(r.Params)+len(r.Error)+len(r.Rendered)+len(r.Result)+wire.SumLen)}
	w.Raw(recMagic)
	w.U32(0) // payload length, set below
	w.U8(byte(r.Kind))
	w.U64(r.ID)
	w.U64(r.Epoch)
	w.U64(uint64(r.Unix))
	w.Str(r.Coord, maxNameLen)
	w.Str(r.Tenant, maxNameLen)
	w.U8(byte(r.Lane))
	w.Str(r.Experiment, maxNameLen)
	w.Str(r.Scale, maxNameLen)
	w.U32(r.Workers)
	w.Blob(r.Params, maxBlobLen)
	w.U8(r.Status)
	w.Str(r.Error, maxErrLen)
	w.Blob(r.Rendered, maxBlobLen)
	w.Blob(r.Result, maxBlobLen)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("jobstore: encoding a kind %d record: %w", r.Kind, err)
	}
	plen := len(w.Buf) - headerLen
	if plen > maxPayloadLen {
		return nil, fmt.Errorf("jobstore: encoding a kind %d record: %w: payload of %d (max %d)",
			r.Kind, wire.ErrTooLong, plen, maxPayloadLen)
	}
	binary.LittleEndian.PutUint32(w.Buf[len(recMagic):], uint32(plen))
	return wire.AppendSum(w.Buf), nil
}

// ReadRecord parses the frame at the start of buf, returning the
// record and the number of bytes consumed. A buffer ending mid-frame
// returns ErrTorn; any other malformation returns ErrCorrupt.
func ReadRecord(buf []byte) (*Record, int, error) {
	if len(buf) < headerLen {
		return nil, 0, ErrTorn
	}
	h := wire.NewReader(buf[:headerLen], ErrCorrupt)
	h.Magic(recMagic)
	plen := int(h.U32())
	if plen > maxPayloadLen {
		h.Failf("payload length %d", plen)
	}
	if err := h.Err(); err != nil {
		return nil, 0, err
	}
	total := headerLen + plen + wire.SumLen
	if len(buf) < total {
		return nil, 0, ErrTorn
	}
	frame, err := wire.SplitSum(buf[:total], ErrCorrupt)
	if err != nil {
		return nil, 0, err
	}
	r, err := decodePayload(frame[headerLen:])
	if err != nil {
		return nil, 0, err
	}
	return r, total, nil
}

// DecodeRecord parses exactly one frame spanning the whole buffer; it
// is the fuzz entry point.
func DecodeRecord(buf []byte) (*Record, error) {
	r, n, err := ReadRecord(buf)
	if err != nil {
		// A short buffer is malformed input here, not a resumable read.
		if errors.Is(err, ErrTorn) {
			return nil, corruptf("truncated frame (%d bytes)", len(buf))
		}
		return nil, err
	}
	if n != len(buf) {
		return nil, corruptf("%d trailing bytes", len(buf)-n)
	}
	return r, nil
}

func decodePayload(buf []byte) (*Record, error) {
	d := wire.NewReader(buf, ErrCorrupt)
	r := &Record{}
	r.Kind = Kind(d.U8())
	r.ID = d.U64()
	r.Epoch = d.U64()
	r.Unix = int64(d.U64())
	r.Coord = d.Str(maxNameLen)
	r.Tenant = d.Str(maxNameLen)
	r.Lane = tenant.Lane(d.U8())
	r.Experiment = d.Str(maxNameLen)
	r.Scale = d.Str(maxNameLen)
	r.Workers = d.U32()
	r.Params = d.Blob(maxBlobLen)
	r.Status = d.U8()
	r.Error = d.Str(maxErrLen)
	r.Rendered = d.Blob(maxBlobLen)
	r.Result = d.Blob(maxBlobLen)
	if err := d.Done(); err != nil {
		return nil, err
	}
	if r.Kind == 0 || r.Kind > kindMax {
		return nil, corruptf("unknown record kind %d", r.Kind)
	}
	if !r.Lane.Valid() {
		return nil, corruptf("invalid lane %d", r.Lane)
	}
	if r.Status > statusCodeCancelled {
		return nil, corruptf("invalid status code %d", r.Status)
	}
	return r, nil
}
