package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/faults"
)

type inner struct {
	Name  string
	Flags []bool
}

type sample struct {
	I      int
	I8     int8
	U      uint64
	F      float64
	S      string
	Ints   []int
	Nested []inner
	Ptr    *inner
	Arr    [2]int32
	hidden int
	Skip   string `json:"-"`
}

// roundTrip encodes v with a fresh plan for its type and decodes it back.
func roundTrip[T any](t *testing.T, v T) T {
	t.Helper()
	pc, err := newPayloadCodec(reflect.TypeFor[T]())
	if err != nil {
		t.Fatal(err)
	}
	data := pc.append(nil, reflect.ValueOf(v))
	var out T
	if err := pc.decode(data, reflect.ValueOf(&out).Elem()); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPayloadCodecRoundTrip: every supported kind survives, nil and empty
// slices and pointers stay distinct, float bits (NaN payloads, -0) are
// kept exactly, and unexported or `json:"-"` fields are not written.
func TestPayloadCodecRoundTrip(t *testing.T) {
	full := sample{
		I: -5, I8: -128, U: math.MaxUint64, F: math.Copysign(0, -1), S: "héllo",
		Ints:   []int{},
		Nested: []inner{{Name: "a"}, {Name: "", Flags: []bool{true, false}}, {Flags: []bool{}}},
		Ptr:    &inner{},
		Arr:    [2]int32{math.MinInt32, math.MaxInt32},
		hidden: 7, Skip: "dropped",
	}
	got := roundTrip(t, full)
	full.hidden, full.Skip = 0, ""
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("round trip\n got %+v\nwant %+v", got, full)
	}
	if !math.Signbit(got.F) {
		t.Fatal("-0 lost its sign")
	}
	if got := roundTrip(t, sample{}); !reflect.DeepEqual(got, sample{}) {
		t.Fatalf("zero value round trip got %+v", got)
	}
	nan := math.Float64frombits(0x7FF8_0000_0000_00AB)
	if got := roundTrip(t, []float64{nan}); math.Float64bits(got[0]) != math.Float64bits(nan) {
		t.Fatalf("NaN payload changed: %x", math.Float64bits(got[0]))
	}
}

// TestPayloadLayoutDigest: the digest covers field order, names and kinds,
// so any of those differing between writer and reader is ErrLayout.
func TestPayloadLayoutDigest(t *testing.T) {
	type ab struct{ A, B int }
	type ba struct{ B, A int }
	type abRenamed struct{ A, C int }
	type abRetyped struct {
		A int
		B string
	}
	type abTwin struct{ A, B int }
	digest := func(v any) [8]byte {
		pc, err := newPayloadCodec(reflect.TypeOf(v))
		if err != nil {
			t.Fatal(err)
		}
		return pc.digest
	}
	base := digest(ab{})
	for name, v := range map[string]any{"reordered": ba{}, "renamed": abRenamed{}, "retyped": abRetyped{}} {
		if digest(v) == base {
			t.Errorf("%s struct has the same layout digest", name)
		}
	}
	if digest(abTwin{}) != base {
		t.Error("an identically laid out struct has a different digest")
	}

	writer, _ := newPayloadCodec(reflect.TypeFor[ab]())
	reader, _ := newPayloadCodec(reflect.TypeFor[ba]())
	var out ba
	if err := reader.decode(writer.append(nil, reflect.ValueOf(ab{1, 2})), reflect.ValueOf(&out).Elem()); !errors.Is(err, ErrLayout) {
		t.Fatalf("reordered reader: got %v, want ErrLayout", err)
	}
}

// TestPayloadCodecRejectsUnencodableTypes: kinds with no deterministic
// positional value fail when the plan is built, not mid-encode.
func TestPayloadCodecRejectsUnencodableTypes(t *testing.T) {
	type withMap struct{ M map[string]int }
	type recursive struct{ Next *recursive }
	type empty struct{}
	type zeroWidth struct{ E []empty }
	for name, typ := range map[string]reflect.Type{
		"map":        reflect.TypeFor[withMap](),
		"recursive":  reflect.TypeFor[recursive](),
		"zero-width": reflect.TypeFor[zeroWidth](),
		"interface":  reflect.TypeFor[struct{ X any }](),
	} {
		if _, err := newPayloadCodec(typ); err == nil {
			t.Errorf("%s: planned without error", name)
		}
	}
}

// TestPayloadDecodeOverflow: a value too wide for its field is corrupt.
func TestPayloadDecodeOverflow(t *testing.T) {
	wide, _ := newPayloadCodec(reflect.TypeFor[struct{ X int64 }]())
	narrow, _ := newPayloadCodec(reflect.TypeFor[struct{ X int8 }]())
	data := wide.append(nil, reflect.ValueOf(struct{ X int64 }{300}))
	copy(data, narrow.digest[:])
	var out struct{ X int8 }
	if err := narrow.decode(data, reflect.ValueOf(&out).Elem()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

// TestEncodeReturnsOwnedSlice: the manager reuses one buffer across saves,
// but Encode's result belongs to the caller and never aliases it.
func TestEncodeReturnsOwnedSlice(t *testing.T) {
	m, err := NewManager(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	snap := snapshotAfter(t, 1)
	first, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Clone(first)
	for _, cut := range []int{1, 2} {
		if err := m.Save(snapshotAfter(t, cut)); err != nil {
			t.Fatal(err)
		}
	}
	second, err := Encode(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, want) || !bytes.Equal(second, want) {
		t.Fatal("Encode output changed across manager saves")
	}
	second[0] ^= 0xFF
	if !bytes.Equal(first, want) {
		t.Fatal("two Encode results share memory")
	}
}

// TestEncodedBytesAcrossGOMAXPROCS: the test preset run for 20 days
// encodes to the same bytes at GOMAXPROCS=1 and at NumCPU, faults off and
// moderate — the positional codec adds no order of its own.
//
// One field is blanked before the faulted comparison: ResilientState.Stats.
// When two verticals check one domain at once, the in-flight dedup fetches
// the sample URL of whichever check arrives first, and faults are keyed by
// URL, so under load the attempt and retry counts can differ by a retry
// between schedules although every verdict agrees. That is the
// scheduling-dependent accounting of ROADMAP item 1, not the codec; the
// test logs when it moved.
func TestEncodedBytesAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	encodeAt := func(t *testing.T, procs int, fc faults.Config) ([]byte, crawler.FetchStats) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		cfg := core.TestConfig()
		cfg.MaxDays = 20
		cfg.Faults = fc
		w := core.NewWorld(cfg)
		w.Run()
		snap := w.Snapshot()
		var stats crawler.FetchStats
		if snap.Resilient != nil {
			stats, snap.Resilient.Stats = snap.Resilient.Stats, crawler.FetchStats{}
		}
		data, err := Encode(snap)
		if err != nil {
			t.Fatal(err)
		}
		return data, stats
	}
	for _, profile := range []string{"off", "moderate"} {
		t.Run(profile, func(t *testing.T) {
			fc, err := faults.Profile(profile)
			if err != nil {
				t.Fatal(err)
			}
			serial, serialStats := encodeAt(t, 1, fc)
			parallel, parallelStats := encodeAt(t, runtime.NumCPU(), fc)
			if !bytes.Equal(serial, parallel) {
				t.Fatalf("encoded snapshot differs: %d bytes at GOMAXPROCS=1, %d at %d",
					len(serial), len(parallel), runtime.NumCPU())
			}
			if serialStats != parallelStats {
				t.Logf("fetch accounting followed scheduling (ROADMAP item 1): %+v vs %+v", serialStats, parallelStats)
			}
			t.Logf("%d bytes at GOMAXPROCS 1 and %d", len(serial), runtime.NumCPU())
		})
	}
}
