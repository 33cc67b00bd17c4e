package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// testCfg is a miniature study config (same shape as internal/core's
// smallConfig) so building snapshot fixtures stays fast.
func testCfg() core.Config {
	cfg := core.TestConfig()
	cfg.TermsPerVertical = 3
	cfg.SlotsPerTerm = 20
	cfg.ExtendedTail = false
	return cfg
}

// snapCache memoizes fixtures per cut day: building a world dominates this
// package's test time, and every caller treats snapshots as read-only
// (except TestRestoreSnapshotRejectsTamperedDataset-style mutation, which
// lives in internal/core and builds its own).
var snapCache = map[int]*core.StudySnapshot{}

// snapshotAfter runs a fresh world and captures its snapshot after `cut`
// days, using the day-boundary hook plus context cancellation so the run
// stops deterministically right at the boundary. cut == 0 snapshots the
// fresh world.
func snapshotAfter(t *testing.T, cut int) *core.StudySnapshot {
	t.Helper()
	if s, ok := snapCache[cut]; ok {
		return s
	}
	w := core.NewWorld(testCfg())
	if cut == 0 {
		s := w.Snapshot()
		snapCache[0] = s
		return s
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var snap *core.StudySnapshot
	w.OnDayEnd = func(d simclock.Day) {
		if int(d)+1 == cut {
			snap = w.Snapshot()
			cancel()
		}
	}
	w.RunContext(ctx)
	if snap == nil {
		t.Fatalf("no snapshot captured at day %d", cut)
	}
	snapCache[cut] = snap
	return snap
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	snap := snapshotAfter(t, 3)
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("decoded snapshot differs from original")
	}
	// Encoding is deterministic: the same snapshot re-encodes to the same
	// bytes, so checkpoint files are byte-comparable across runs.
	again, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding a decoded snapshot changed the bytes")
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	snap := snapshotAfter(t, 2)
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 1, headerSize - 1, headerSize + 7, len(data) / 2, len(data) - 1} {
			if _, err := Decode(data[:n]); err == nil {
				t.Errorf("accepted a file truncated to %d bytes", n)
			}
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[0] ^= 0xFF
		if _, err := Decode(bad); !errors.Is(err, ErrBadMagic) {
			t.Errorf("got %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad-version", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[7] = 99
		if _, err := Decode(bad); !errors.Is(err, ErrVersion) {
			t.Errorf("got %v, want ErrVersion", err)
		}
	})
	t.Run("bit-flips", func(t *testing.T) {
		// A single flipped bit anywhere in the payload or checksum must be
		// detected. Sampling offsets keeps the test fast on large files.
		for off := headerSize; off < len(data); off += 101 {
			bad := bytes.Clone(data)
			bad[off] ^= 0x10
			if _, err := Decode(bad); err == nil {
				t.Fatalf("accepted a bit flip at offset %d", off)
			}
		}
	})
	t.Run("appended-garbage", func(t *testing.T) {
		if _, err := Decode(append(bytes.Clone(data), 0xAB)); err == nil {
			t.Error("accepted a file with trailing garbage")
		}
	})
}

// frame wraps a raw payload in the envelope-1 framing — the header with
// the given version byte, a correct length and an FNV-1a trailer — exactly
// as builds before envelope 2 wrote it, so tests can probe decode
// behaviour past the framing checks. Callers pass jsonEnvelope to build a
// genuine version-1 file.
func frame(version byte, payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload)+8)
	buf = append(buf, magic[:]...)
	buf = append(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64())
}

// frameV2 is frame's envelope-2 counterpart: the same header around a
// binary payload, with a correct CRC-32C trailer.
func frameV2(version byte, payload []byte) []byte {
	buf := make([]byte, 0, headerSize+len(payload)+crcSize)
	buf = append(buf, magic[:]...)
	buf = append(buf, version)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// encodeV1 writes a snapshot exactly as the envelope-1 encoder did: the
// JSON payload framed under byte 1 with an FNV-1a trailer.
func encodeV1(t testing.TB, snap *core.StudySnapshot) []byte {
	t.Helper()
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return frame(jsonEnvelope, payload)
}

// payloadOf encodes a snapshot and strips the envelope-2 framing, leaving
// the digest-prefixed binary payload.
func payloadOf(t testing.TB, snap *core.StudySnapshot) []byte {
	t.Helper()
	data, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	return data[headerSize : len(data)-crcSize]
}

// damagedV2 is an envelope-2 file whose framing and checksum are intact
// but whose payload the decoder must refuse with the typed error want.
type damagedV2 struct {
	name string
	file []byte
	want error
}

// damagedV2Files hand-damages the payload of a near-empty snapshot whose
// encoding ends in DatasetState's last three fields: FaultsEnabled,
// Coverage and ObservedDays = []bool{false}, FpIncr — the bytes
// 0x00 0x00 0x02 0x00 0x00.
func damagedV2Files(t testing.TB) []damagedV2 {
	t.Helper()
	payload := payloadOf(t, &core.StudySnapshot{Dataset: core.DatasetState{ObservedDays: []bool{false}}})
	tail := payload[len(payload)-5:]
	if !bytes.Equal(tail, []byte{0, 0, 2, 0, 0}) {
		t.Fatalf("payload tail is % x; DatasetState's trailing fields moved, update damagedV2Files", tail)
	}
	with := func(edit func(p []byte) []byte) []byte {
		return frameV2(envelopeVersion, edit(bytes.Clone(payload)))
	}
	return []damagedV2{
		{"wrong-layout-digest", with(func(p []byte) []byte { p[0] ^= 0xFF; return p }), ErrLayout},
		{"slice-longer-than-bytes-left", with(func(p []byte) []byte { p[len(p)-3] = 0x7F; return p }), ErrCorrupt},
		{"bool-byte-2", with(func(p []byte) []byte { p[len(p)-2] = 2; return p }), ErrCorrupt},
		{"trailing-bytes", with(func(p []byte) []byte { return append(p, 0) }), ErrCorrupt},
		{"shorter-than-digest", frameV2(envelopeVersion, payload[:3]), ErrCorrupt},
	}
}

func TestDecodeRejectsDamagedPayload(t *testing.T) {
	for _, tc := range damagedV2Files(t) {
		t.Run(tc.name, func(t *testing.T) {
			snap, err := Decode(tc.file)
			if !errors.Is(err, tc.want) || snap != nil {
				t.Fatalf("got (%v, %v), want %v", snap, err, tc.want)
			}
			if tc.want == ErrLayout && errors.Is(err, ErrCorrupt) {
				t.Fatal("a layout mismatch must not be classed as corruption")
			}
		})
	}
}

// TestDecodeEnvelopeV1 pins the upgrade path: a file written by the
// envelope-1 encoder (JSON payload, FNV-1a trailer) still decodes to the
// snapshot it was written from, and its damage is still detected.
func TestDecodeEnvelopeV1(t *testing.T) {
	snap := snapshotAfter(t, 3)
	data := encodeV1(t, snap)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("decoded envelope-1 snapshot differs from original")
	}
	bad := bytes.Clone(data)
	bad[len(bad)/2] ^= 0x10
	if _, err := Decode(bad); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit flip in an envelope-1 file: got %v, want ErrChecksum", err)
	}
	if _, err := Decode(data[:len(data)-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated envelope-1 file: got %v, want ErrTruncated", err)
	}
}

// TestDecodeForwardCompat pins the reader's behaviour on files written by a
// newer build: both a newer envelope and a newer snapshot schema yield
// their own typed errors — never ErrCorrupt, which is reserved for damage.
func TestDecodeForwardCompat(t *testing.T) {
	t.Run("newer-envelope", func(t *testing.T) {
		for name, data := range map[string][]byte{
			"v1-framing": frame(envelopeVersion+1, []byte(`{}`)),
			"v2-framing": frameV2(envelopeVersion+1, payloadOf(t, &core.StudySnapshot{})),
		} {
			_, err := Decode(data)
			if !errors.Is(err, ErrVersion) {
				t.Fatalf("%s: got %v, want ErrVersion", name, err)
			}
			if errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: a newer envelope must not be classed as corruption", name)
			}
		}
	})
	t.Run("newer-snapshot-schema", func(t *testing.T) {
		payload := []byte(fmt.Sprintf(`{"Version":%d}`, core.SnapshotVersion+1))
		v2, err := Encode(&core.StudySnapshot{Version: core.SnapshotVersion + 1})
		if err != nil {
			t.Fatal(err)
		}
		for name, data := range map[string][]byte{
			"envelope-1": frame(jsonEnvelope, payload),
			"envelope-2": v2,
		} {
			_, err := Decode(data)
			if !errors.Is(err, ErrSnapshotVersion) {
				t.Fatalf("%s: got %v, want ErrSnapshotVersion", name, err)
			}
			if errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: a newer snapshot schema must not be classed as corruption", name)
			}
		}
	})
	t.Run("older-snapshot-schema-loads", func(t *testing.T) {
		// A version-1 payload predates the Version field entirely and
		// decodes as 0; anything <= the current version must load.
		for _, v := range []string{`{}`, `{"Version":0}`, fmt.Sprintf(`{"Version":%d}`, core.SnapshotVersion)} {
			if _, err := Decode(frame(jsonEnvelope, []byte(v))); err != nil {
				t.Fatalf("envelope-1 payload %s: %v", v, err)
			}
		}
		for v := 0; v <= core.SnapshotVersion; v++ {
			data, err := Encode(&core.StudySnapshot{Version: v})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(data); err != nil {
				t.Fatalf("envelope-2 payload version %d: %v", v, err)
			}
		}
	})
	t.Run("current-snapshot-declares-version", func(t *testing.T) {
		snap := snapshotAfter(t, 0)
		if snap.Version != core.SnapshotVersion {
			t.Fatalf("Snapshot() wrote Version %d, want %d", snap.Version, core.SnapshotVersion)
		}
	})
}

func TestManagerSaveLoadRotate(t *testing.T) {
	reg := telemetry.New()
	m, err := NewManager(Options{Dir: t.TempDir(), Keep: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := m.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}

	snaps := map[int]*core.StudySnapshot{}
	for _, cut := range []int{1, 2, 3} {
		snaps[cut] = snapshotAfter(t, cut)
		if err := m.Save(snaps[cut]); err != nil {
			t.Fatalf("save at day %d: %v", cut, err)
		}
	}

	// Keep=2: only the two newest snapshots survive rotation.
	if days := m.list(); !reflect.DeepEqual(days, []int{2, 3}) {
		t.Fatalf("after rotation have days %v, want [2 3]", days)
	}
	got, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snaps[3]) {
		t.Fatal("Load did not return the newest snapshot")
	}
	if v := reg.Counter("checkpoint_saves_total").Value(); v != 3 {
		t.Errorf("saves_total = %d, want 3", v)
	}
	if v := reg.Counter("checkpoint_loads_total").Value(); v != 1 {
		t.Errorf("loads_total = %d, want 1", v)
	}
	if c := reg.Histogram("checkpoint_save_ms", telemetry.DurationBuckets()).Count(); c != 3 {
		t.Errorf("save_ms histogram count = %d, want 3", c)
	}
}

// TestManagerFallsBackPastCorruption: damage to the newest snapshot —
// bit-flipped or truncated, as a torn write would leave, or intact but
// laid out by another build — is detected and Load falls back to the
// previous good one, with the damage counted.
func TestManagerFallsBackPastCorruption(t *testing.T) {
	corrupt := func(t *testing.T, path string, mode string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		switch mode {
		case "bitflip":
			data[len(data)/2] ^= 0x01
		case "truncate":
			data = data[:len(data)/3]
		case "layout":
			// An intact file from a build whose snapshot structs are laid
			// out differently: the checksum passes, the digest does not.
			payload := bytes.Clone(data[headerSize : len(data)-crcSize])
			payload[0] ^= 0xFF
			data = frameV2(envelopeVersion, payload)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	for _, mode := range []string{"bitflip", "truncate", "layout"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.New()
			m, err := NewManager(Options{Dir: dir, Telemetry: reg})
			if err != nil {
				t.Fatal(err)
			}
			good := snapshotAfter(t, 1)
			if err := m.Save(good); err != nil {
				t.Fatal(err)
			}
			if err := m.Save(snapshotAfter(t, 2)); err != nil {
				t.Fatal(err)
			}
			corrupt(t, filepath.Join(dir, fileFor(2)), mode)

			got, err := m.Load()
			if err != nil {
				t.Fatalf("Load with damaged newest: %v", err)
			}
			if !reflect.DeepEqual(got, good) {
				t.Fatal("Load did not fall back to the previous good snapshot")
			}
			if v := reg.Counter("checkpoint_corrupt_total").Value(); v != 1 {
				t.Errorf("corrupt_total = %d, want 1", v)
			}
			if v := reg.Counter("checkpoint_fallbacks_total").Value(); v != 1 {
				t.Errorf("fallbacks_total = %d, want 1", v)
			}

			// Damage the survivor too: now Load must fail, and the error
			// must not read as "no checkpoint" (data was present, just bad).
			corrupt(t, filepath.Join(dir, fileFor(1)), mode)
			if _, err := m.Load(); err == nil || errors.Is(err, ErrNoCheckpoint) {
				t.Fatalf("all-corrupt dir: got %v, want a damage error", err)
			}
		})
	}
}

// TestCrashAtEveryKillPoint drives the atomic write protocol into a wall
// at each kill point in turn and checks the durability invariant: after
// any crash, the directory still loads — either the previous snapshot
// (crash before rename) or the new one (crash after).
func TestCrashAtEveryKillPoint(t *testing.T) {
	prev := snapshotAfter(t, 1)
	next := snapshotAfter(t, 2)
	for _, op := range []string{"create", "write", "fsync", "rename", "dirsync"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			clean, err := NewManager(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := clean.Save(prev); err != nil {
				t.Fatal(err)
			}

			reg := telemetry.New()
			m, err := NewManager(Options{
				Dir:       dir,
				Telemetry: reg,
				Disk:      faults.NewDiskPlan(42, 1.0, op),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Save(next); !errors.Is(err, faults.ErrInjectedCrash) {
				t.Fatalf("save at kill point %q: got %v, want ErrInjectedCrash", op, err)
			}
			if v := reg.Counter("checkpoint_saves_total").Value(); v != 0 {
				t.Errorf("crashed save counted as success (saves_total = %d)", v)
			}

			got, err := m.Load()
			if err != nil {
				t.Fatalf("Load after crash at %q: %v", op, err)
			}
			switch op {
			case "dirsync":
				// The rename committed before the crash: the new snapshot
				// is already durable.
				if !reflect.DeepEqual(got, next) {
					t.Fatal("crash after rename lost the renamed snapshot")
				}
			default:
				if !reflect.DeepEqual(got, prev) {
					t.Fatalf("crash at %q damaged the previous snapshot", op)
				}
			}
		})
	}
}

// TestCrashedWriteLeavesNoFinalFile: the torn half-written file a "write"
// crash leaves behind is a .tmp the loader never confuses with a snapshot.
func TestCrashedWriteLeavesNoFinalFile(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Options{Dir: dir, Disk: faults.NewDiskPlan(7, 1.0, "write")})
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotAfter(t, 1)
	if err := m.Save(snap); !errors.Is(err, faults.ErrInjectedCrash) {
		t.Fatalf("got %v, want ErrInjectedCrash", err)
	}
	if _, err := os.Stat(filepath.Join(dir, fileFor(int(snap.NextDay)))); !os.IsNotExist(err) {
		t.Fatal("torn write produced a final-name file")
	}
	if _, err := m.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("got %v, want ErrNoCheckpoint (tmp files are not snapshots)", err)
	}
}

// TestDiskPlanDeterminism: crash decisions are a pure hash of (seed, op,
// key) — the same plan replays the same schedule, different seeds differ.
func TestDiskPlanDeterminism(t *testing.T) {
	a := faults.NewDiskPlan(1, 0.5)
	b := faults.NewDiskPlan(1, 0.5)
	c := faults.NewDiskPlan(2, 0.5)
	diff := 0
	for _, op := range []string{"create", "write", "fsync", "rename", "dirsync"} {
		for _, key := range []string{"ckpt-00000001.ckpt", "ckpt-00000002.ckpt", "x"} {
			if a.CrashAt(op, key) != b.CrashAt(op, key) {
				t.Fatalf("same seed disagrees at (%s,%s)", op, key)
			}
			if a.CrashAt(op, key) != c.CrashAt(op, key) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("seeds 1 and 2 produced identical crash schedules")
	}
	var nilPlan *faults.DiskPlan
	if nilPlan.CrashAt("write", "k") {
		t.Fatal("nil plan crashed")
	}
}
