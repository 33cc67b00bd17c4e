package searchseizure

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// goldenTinyFingerprint is the tinyConfig() faults-off dataset fingerprint
// (the same configuration and constant as internal/core's golden). Every
// resume path below must converge to it — a checkpointed study is
// bit-identical to an uninterrupted one.
const goldenTinyFingerprint = 0xf6f361ae7ec6499d

func mustGolden(t *testing.T, s *Study) {
	t.Helper()
	data, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	if got := data.Fingerprint(); uint64(got) != goldenTinyFingerprint {
		t.Fatalf("fingerprint %#x != golden %#x", got, uint64(goldenTinyFingerprint))
	}
}

// TestCheckpointResumeAfterCancellation is the paved-path crash story:
// a study is cancelled mid-run (day-granular, like a drained SIGTERM), a
// brand-new process opens the same checkpoint directory, and the finished
// dataset is bit-identical to an uninterrupted run.
func TestCheckpointResumeAfterCancellation(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	s, err := New(tinyConfig(), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Cancel at a mid-run day boundary; the checkpoint hook chains after
	// this one, so the snapshot for the cancellation day still lands.
	cut := s.World.Sim.Days() / 2
	s.World.OnDayEnd = func(d simclock.Day) {
		if int(d)+1 == cut {
			cancel()
		}
	}
	if _, err := s.RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	resumed, err := New(tinyConfig(), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	mustGolden(t, resumed)
	if got := int(resumed.World.Snapshot().NextDay); got != resumed.World.Sim.Days() {
		t.Fatalf("resumed study stopped at day %d", got)
	}
}

// TestCheckpointResumeAtDayZero: a checkpoint written before any day ran
// (e.g. a SIGTERM during warm-up) resumes from day 0 and still converges.
func TestCheckpointResumeAtDayZero(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	s, err := New(tinyConfig(), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	resumed, err := New(tinyConfig(), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	mustGolden(t, resumed)
}

// TestCheckpointResumeWhenComplete: the final snapshot of a finished study
// restores into a world with no days left; RunContext finalizes straight
// away and the dataset still carries the golden fingerprint.
func TestCheckpointResumeWhenComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	s, err := New(tinyConfig(), WithCheckpoint(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	mustGolden(t, s)

	resumed, err := New(tinyConfig(), WithCheckpoint(dir, 5))
	if err != nil {
		t.Fatal(err)
	}
	mustGolden(t, resumed)
}

// TestCheckpointConfigMismatchSurfaces: pointing a differently-seeded study
// at an existing checkpoint directory is a usage error, not a silent
// restart.
func TestCheckpointConfigMismatchSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	s, err := New(tinyConfig(), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	other := tinyConfig()
	other.Seed++
	mismatched, err := New(other, WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mismatched.RunContext(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "config") {
		t.Fatalf("got %v, want a config-mismatch restore error", err)
	}
}

func TestWithCheckpointRejectsEmptyDir(t *testing.T) {
	if _, err := New(tinyConfig(), WithCheckpoint("", 1)); err == nil {
		t.Fatal("New accepted an empty checkpoint directory")
	}
}

// TestCheckpointSurvivesKill9 is the headline durability claim, tested for
// real: a child process running a checkpointed study is killed with
// SIGKILL — no handler, no flush, no goodbye — mid-study, and a fresh
// process over the same directory finishes the study bit-identically.
func TestCheckpointSurvivesKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if os.Getenv("SSCKPT_CHILD") != "" {
		t.Skip("child guard")
	}
	dir := t.TempDir()

	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointKill9Child$", "-test.v")
	cmd.Env = append(os.Environ(), "SSCKPT_CHILD=1", "SSCKPT_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Wait for the child to commit at least two snapshots, then kill -9 —
	// possibly mid-write of a third, which recovery must shrug off.
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if n, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt")); len(n) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("child produced no checkpoints within the deadline")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	resumed, err := New(tinyConfig(), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	mustGolden(t, resumed)
}

// TestCheckpointKill9Child is the sacrificial process for the kill -9
// tests. It only runs when a parent execs it with the guard env set; the
// optional SSCKPT_PROFILE env selects a fault profile.
func TestCheckpointKill9Child(t *testing.T) {
	if os.Getenv("SSCKPT_CHILD") == "" {
		t.Skip("only runs as the kill -9 child")
	}
	opts := []Option{WithCheckpoint(os.Getenv("SSCKPT_DIR"), 1)}
	if p := os.Getenv("SSCKPT_PROFILE"); p != "" {
		opts = append(opts, WithFaults(p))
	}
	s, err := New(tinyConfig(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCrashRecoveryMatrix is the CI crash-recovery job: a study
// under the matrix fault profile (FAULT_PROFILE, default moderate) is
// killed with SIGKILL at a day chosen by hashing the seed and profile — so
// the kill point wanders across code changes instead of fossilising on a
// hand-picked day — then a fresh process resumes from the surviving
// snapshots and its fingerprint must equal an uninterrupted run's.
func TestCheckpointCrashRecoveryMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if os.Getenv("SSCKPT_CHILD") != "" {
		t.Skip("child guard")
	}
	profile := os.Getenv("FAULT_PROFILE")
	if profile == "" {
		profile = "moderate"
	}
	cfg := tinyConfig()
	base, err := New(cfg, WithFaults(profile))
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	days := base.World.Sim.Days()

	h := fnv.New64a()
	fmt.Fprintf(h, "crash-recovery/%d/%s", cfg.Seed, profile)
	killDay := 1 + int(h.Sum64()%uint64(days-1))
	t.Logf("profile %s: killing after the day-%d snapshot lands", profile, killDay)

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointKill9Child$", "-test.v")
	cmd.Env = append(os.Environ(),
		"SSCKPT_CHILD=1", "SSCKPT_DIR="+dir, "SSCKPT_PROFILE="+profile)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	target := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.ckpt", killDay))
	deadline := time.Now().Add(3 * time.Minute)
	for {
		if _, err := os.Stat(target); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("child never reached day %d within the deadline", killDay)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	resumed, err := New(cfg, WithFaults(profile), WithCheckpoint(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("resumed fingerprint %#x != uninterrupted %#x",
			got.Fingerprint(), want.Fingerprint())
	}
}

// encodeV1 writes a snapshot exactly as envelope-1 builds did: the JSON
// payload behind the SSCKPT header with envelope byte 1, then an FNV-1a
// trailer over everything before it.
func encodeV1(t *testing.T, snap *core.StudySnapshot) []byte {
	t.Helper()
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte("SSCKPT\x00"), 1)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	h := fnv.New64a()
	h.Write(buf)
	return binary.LittleEndian.AppendUint64(buf, h.Sum64())
}

// TestCheckpointResumesFromEnvelopeV1: a study directory written by an
// envelope-1 build — its newest file a JSON snapshot cut mid-study —
// resumes from that file and finishes on the uninterrupted fingerprint:
// the golden with faults off, an uninterrupted run's with faults moderate.
func TestCheckpointResumesFromEnvelopeV1(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, profile := range []string{"off", "moderate"} {
		t.Run(profile, func(t *testing.T) {
			want := uint64(goldenTinyFingerprint)
			if profile != "off" {
				ref, err := New(tinyConfig(), WithFaults(profile))
				if err != nil {
					t.Fatal(err)
				}
				data, err := ref.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				want = uint64(data.Fingerprint())
			}

			cut, err := New(tinyConfig(), WithFaults(profile))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			day := cut.World.Sim.Days() / 2
			var snap *core.StudySnapshot
			cut.World.OnDayEnd = func(d simclock.Day) {
				if int(d)+1 == day {
					snap = cut.World.Snapshot()
					cancel()
				}
			}
			if _, err := cut.RunContext(ctx); !errors.Is(err, context.Canceled) {
				t.Fatalf("got %v, want context.Canceled", err)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("ckpt-%08d.ckpt", day)), encodeV1(t, snap), 0o644); err != nil {
				t.Fatal(err)
			}

			reg := NewTelemetry()
			resumed, err := New(tinyConfig(), WithFaults(profile), WithTelemetry(reg), WithCheckpoint(dir, 1000))
			if err != nil {
				t.Fatal(err)
			}
			data, err := resumed.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if n := reg.Counter("checkpoint_loads_total").Value(); n != 1 {
				t.Fatalf("checkpoint_loads_total = %d: the envelope-1 file was not resumed from", n)
			}
			if got := uint64(data.Fingerprint()); got != want {
				t.Fatalf("fingerprint %#x != %#x", got, want)
			}
		})
	}
}

// TestCheckpointExportTimed: every save, from the day cadence or from
// Checkpoint, records its World.Snapshot export in checkpoint_export_ms,
// next to the manager's checkpoint_save_ms for the encode and write.
func TestCheckpointExportTimed(t *testing.T) {
	cfg := tinyConfig()
	cfg.MaxDays = 3
	reg := NewTelemetry()
	s, err := New(cfg, WithTelemetry(reg), WithCheckpoint(t.TempDir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	saves := reg.Counter("checkpoint_saves_total").Value()
	exports := reg.Histogram("checkpoint_export_ms", telemetry.DurationBuckets()).Count()
	saveMS := reg.Histogram("checkpoint_save_ms", telemetry.DurationBuckets()).Count()
	if saves != 4 || exports != saves || saveMS != saves {
		t.Fatalf("saves_total %d, export_ms count %d, save_ms count %d; want 4 of each", saves, exports, saveMS)
	}
}
