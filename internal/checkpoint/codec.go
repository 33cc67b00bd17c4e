// Package checkpoint persists day-boundary snapshots of a running study so
// a killed process can resume from the last good one and converge to the
// bit-identical complete-run fingerprint.
//
// On-disk format, envelope version 2 (all fixed-width integers
// little-endian):
//
//	offset  size  field
//	0       7     magic "SSCKPT\x00"
//	7       1     envelope version (2)
//	8       8     payload length N
//	16      8     layout digest of core.StudySnapshot (first payload bytes)
//	24      N-8   positional binary core.StudySnapshot (see binary.go)
//	16+N    4     CRC-32C (Castagnoli) over bytes [0, 16+N)
//
// Envelope version 1 files — a JSON payload and an 8-byte FNV-1a trailer
// in the same framing — are still read, so study directories written by
// older builds resume; only version 2 is written.
//
// The checksum covers the header too, so a truncated, torn or bit-flipped
// file — the torn-write window of a crash mid-write — is detected rather
// than loaded. The layout digest guards the positional payload against a
// build whose snapshot structs declare their fields in another order:
// such a file is refused with ErrLayout, never misread. Decoding is total:
// arbitrary input yields a typed error or a structurally valid snapshot,
// never a panic (FuzzDecode enforces this); semantic validity against a
// particular study is the restorer's job (core.RestoreSnapshot checks the
// config hash and recomputes the dataset digest).
//
// Writes are atomic per the classic protocol: write to a temp file, fsync
// it, rename over the final name, fsync the directory. A crash at any
// point leaves either the previous snapshot or the complete new one — a
// property the crash-injection tests (via faults.DiskPlan kill points)
// exercise at every step.
package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"reflect"
	"sync"

	"repro/internal/core"
)

// envelopeVersion is the on-disk framing version this build writes.
// core.SnapshotVersion tracks the payload schema separately and is carried
// inside the payload's generation by the config hash discipline.
const envelopeVersion = 2

// jsonEnvelope is the previous framing version: a JSON payload under an
// FNV-1a trailer. It is decoded, never written.
const jsonEnvelope = 1

var magic = [7]byte{'S', 'S', 'C', 'K', 'P', 'T', 0}

// headerSize is magic + version byte + payload length.
const headerSize = len(magic) + 1 + 8

// Trailer sizes per envelope version.
const (
	crcSize = 4 // envelope 2: CRC-32C
	fnvSize = 8 // envelope 1: FNV-1a 64
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapshotCodec is the payload plan for core.StudySnapshot, built on first
// use.
var snapshotCodec = sync.OnceValues(func() (*payloadCodec, error) {
	return newPayloadCodec(reflect.TypeOf(core.StudySnapshot{}))
})

// Typed decode errors. Every way a file can fail to decode maps onto one
// of these (possibly wrapped with detail), so callers can distinguish
// corruption classes in telemetry and tests.
var (
	// ErrTruncated: the file is shorter than its framing promises.
	ErrTruncated = errors.New("checkpoint: file truncated")
	// ErrBadMagic: the file does not start with the checkpoint magic.
	ErrBadMagic = errors.New("checkpoint: bad magic")
	// ErrVersion: the envelope version is unknown to this build.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrChecksum: the trailing checksum does not match the content.
	ErrChecksum = errors.New("checkpoint: checksum mismatch")
	// ErrCorrupt: the framing is intact but the payload does not decode.
	ErrCorrupt = errors.New("checkpoint: corrupt payload")
	// ErrLayout: the framing is intact but the payload was written from
	// snapshot structs laid out differently from this build's (its layout
	// digest differs). Distinct from ErrCorrupt — the file is intact, it
	// just cannot be read positionally by this build.
	ErrLayout = errors.New("checkpoint: payload layout differs from this build")
	// ErrSnapshotVersion: the payload decodes but declares a snapshot
	// schema newer than this build understands. Distinct from ErrCorrupt —
	// the file is intact, the reader is just too old for it.
	ErrSnapshotVersion = errors.New("checkpoint: snapshot schema too new")
)

// Encode serializes a snapshot into the framed, checksummed form. The
// returned slice is freshly allocated and owned by the caller.
func Encode(snap *core.StudySnapshot) ([]byte, error) {
	return appendFrame(nil, snap)
}

// appendFrame appends the framed encoding of snap to dst in place: it
// reserves the header, appends the payload behind it, patches the length
// and appends the checksum, so a caller reusing dst across saves encodes
// without allocating once dst has grown to the snapshot's size.
func appendFrame(dst []byte, snap *core.StudySnapshot) ([]byte, error) {
	if snap == nil {
		return nil, errors.New("checkpoint: encode: nil snapshot")
	}
	pc, err := snapshotCodec()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	start := len(dst)
	dst = append(dst, magic[:]...)
	dst = append(dst, envelopeVersion)
	dst = binary.LittleEndian.AppendUint64(dst, 0)
	dst = pc.append(dst, reflect.ValueOf(snap).Elem())
	binary.LittleEndian.PutUint64(dst[start+headerSize-8:], uint64(len(dst)-start-headerSize))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli)), nil
}

// Decode parses a framed snapshot of either envelope version. It is safe
// on arbitrary input: every length is checked before use, the payload
// length must account for the file size exactly, and the checksum must
// match before the payload is even looked at.
func Decode(data []byte) (*core.StudySnapshot, error) {
	if len(data) < headerSize+crcSize {
		return nil, ErrTruncated
	}
	if [7]byte(data[:7]) != magic {
		return nil, ErrBadMagic
	}
	var trailer int
	switch data[7] {
	case envelopeVersion:
		trailer = crcSize
	case jsonEnvelope:
		trailer = fnvSize
	default:
		return nil, fmt.Errorf("%w: %d", ErrVersion, data[7])
	}
	if len(data) < headerSize+trailer {
		return nil, ErrTruncated
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n != uint64(len(data)-headerSize-trailer) {
		return nil, fmt.Errorf("%w: payload length %d in a %d-byte file", ErrTruncated, n, len(data))
	}
	body, payload := data[:len(data)-trailer], data[headerSize:len(data)-trailer]
	snap := new(core.StudySnapshot)
	if data[7] == jsonEnvelope {
		h := fnv.New64a()
		h.Write(body)
		if h.Sum64() != binary.LittleEndian.Uint64(data[len(body):]) {
			return nil, ErrChecksum
		}
		if err := json.Unmarshal(payload, snap); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	} else {
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[len(body):]) {
			return nil, ErrChecksum
		}
		pc, err := snapshotCodec()
		if err != nil {
			return nil, fmt.Errorf("checkpoint: decode: %w", err)
		}
		if err := pc.decode(payload, reflect.ValueOf(snap).Elem()); err != nil {
			return nil, err
		}
	}
	// Forward compatibility: a payload written by a newer build is rejected
	// with a typed error, never misread. Older payloads (including
	// version-1 files predating the field, which decode as 0) pass.
	if snap.Version > core.SnapshotVersion {
		return nil, fmt.Errorf("%w: payload version %d, this build reads <= %d", ErrSnapshotVersion, snap.Version, core.SnapshotVersion)
	}
	return snap, nil
}
