package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/core"
)

// FuzzDecode enforces the decoder's totality contract: arbitrary bytes
// produce either a typed error or a valid snapshot — never a panic, and
// never a "valid" result that fails to re-encode. The seed corpus covers
// the interesting boundaries for both envelope versions: a genuine
// encoding, every framing field damaged one at a time, pathological length
// claims, and (envelope 2) payloads damaged past an intact checksum.
func FuzzDecode(f *testing.F) {
	valid, err := Encode(core.NewWorld(testCfg()).Snapshot())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// A genuine envelope-1 file. A small one: a megabyte-scale JSON seed
	// slows the fuzzer's mutation loop by orders of magnitude.
	f.Add(encodeV1(f, &core.StudySnapshot{Version: 1, NextDay: 3}))
	f.Add([]byte{})
	f.Add(valid[:headerSize])
	f.Add(valid[:len(valid)-1])
	f.Add(append(bytes.Clone(valid), 0))

	badVersion := bytes.Clone(valid)
	badVersion[7] = 0xFF
	f.Add(badVersion)

	// A file from the "next" build: envelope one version ahead, correctly
	// framed and checksummed — must fail typed, not crash.
	f.Add(frame(envelopeVersion+1, []byte(`{}`)))
	f.Add(frameV2(envelopeVersion+1, payloadOf(f, &core.StudySnapshot{})))
	// Intact framing around a payload declaring a snapshot schema newer
	// than this build reads.
	f.Add(frame(jsonEnvelope, []byte(`{"Version":99}`)))
	newer, err := Encode(&core.StudySnapshot{Version: 99})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(newer)

	// A framing that claims a payload far larger than the file.
	huge := bytes.Clone(valid[:headerSize])
	binary.LittleEndian.PutUint64(huge[8:16], 1<<60)
	f.Add(huge)

	// Valid envelope-1 framing and checksum around a payload that is not
	// JSON: the checksum passes, the payload decode must still fail cleanly.
	junk := append([]byte{}, magic[:]...)
	junk = append(junk, jsonEnvelope)
	junk = binary.LittleEndian.AppendUint64(junk, 4)
	junk = append(junk, "}{!~"...)
	h := fnv.New64a()
	h.Write(junk)
	junk = binary.LittleEndian.AppendUint64(junk, h.Sum64())
	f.Add(junk)
	// Its envelope-2 counterpart, and the hand-damaged binary payloads: a
	// wrong layout digest, a slice longer than the bytes left, a bool byte
	// of 2, trailing bytes.
	f.Add(frameV2(envelopeVersion, []byte("}{!~")))
	for _, d := range damagedV2Files(f) {
		f.Add(d.file)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(data)
		if err != nil {
			if snap != nil {
				t.Fatal("Decode returned both a snapshot and an error")
			}
			return
		}
		if snap == nil {
			t.Fatal("Decode returned neither a snapshot nor an error")
		}
		if _, err := Encode(snap); err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
	})
}
