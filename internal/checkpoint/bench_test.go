package checkpoint

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// BenchmarkSaveParts splits one save of a service tenant's day-60 state
// (test preset, faults moderate) into its parts: the World.Snapshot
// export, the codec, a whole manager save (encode plus the atomic write),
// and the decode a resume pays. Run with
//
//	go test ./internal/checkpoint -run '^$' -bench SaveParts -benchmem
func BenchmarkSaveParts(b *testing.B) {
	cfg := core.TestConfig()
	cfg.MaxDays = 60
	fc, err := faults.Profile("moderate")
	if err != nil {
		b.Fatal(err)
	}
	cfg.Faults = fc
	w := core.NewWorld(cfg)
	w.Run()
	snap := w.Snapshot()
	data, err := Encode(snap)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("day-60 snapshot: %d bytes", len(data))

	b.Run("export", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			snap = w.Snapshot()
		}
	})
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if data, err = Encode(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("save", func(b *testing.B) {
		m, err := NewManager(Options{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := m.Save(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if snap, err = Decode(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
