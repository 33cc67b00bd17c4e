package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	searchseizure "repro"
	"repro/internal/telemetry"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, b := tenantSpecs(7, mixShape), tenantSpecs(7, mixShape)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tenant specs differ for one seed:\n%+v\n%+v", a, b)
	}
	if reflect.DeepEqual(a, tenantSpecs(8, mixShape)) {
		t.Fatal("tenant specs equal for seeds 7 and 8")
	}
	for _, s := range a {
		if err := s.Validate(); err != nil {
			t.Fatalf("invalid tenant spec %+v: %v", s, err)
		}
	}

	cfg := searchseizure.TestConfig()
	cfg.MaxDays = 2
	study, err := searchseizure.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := study.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	u1, u2 := sampleURLs(study.World, 7, 50), sampleURLs(study.World, 7, 50)
	if len(u1) != 50 || !reflect.DeepEqual(u1, u2) {
		t.Fatalf("URL samples differ for one seed (%d, %d URLs)", len(u1), len(u2))
	}
	if reflect.DeepEqual(u1, sampleURLs(study.World, 8, 50)) {
		t.Fatal("URL samples equal for seeds 7 and 8")
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct float64
	}{{1, 100}, {19, 100}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // 1..n, reversed: tail must not rely on order
		}
		got := tail(xs)
		if got.pct != tc.pct || got.n != tc.n {
			t.Errorf("n=%d: tail at p%g over %d samples, want p%g", tc.n, got.pct, got.n, tc.pct)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > got.value {
				beyond++
			}
		}
		if tc.pct < 100 && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond p%g=%g, want >= %d", tc.n, beyond, got.pct, got.value, minBeyond)
		}
		if tc.pct == 100 && got.value != float64(tc.n) {
			t.Errorf("n=%d: tail %g, want the maximum", tc.n, got.value)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "day", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "a", Start: 2, End: 5},
		{ID: 4, Parent: 1, Name: "b", Start: 8, End: 12},
	}
	self := selfTimes(spans)
	if self["day"] != 4 || self["a"] != 5 || self["b"] != 4 {
		t.Fatalf("self times %v, want day=4 a=5 b=4", self)
	}
}

// TestNamesMatchBenchmarkJSON pins the printed metric names, units and
// workloads to BENCHMARK.json.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprinted:\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprinted:\n%v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, benchmark has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
}

// TestCountsRepeatAcrossGOMAXPROCS runs the traced study layers at
// GOMAXPROCS 1 and at every CPU: each metric labelled a count must come
// out the same.
func TestCountsRepeatAcrossGOMAXPROCS(t *testing.T) {
	cfg := searchseizure.TestConfig()
	cfg.MaxDays = 20
	counts := func(procs int) map[string]float64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		b := &bench{workload: "test", seed: 3, budget: time.Minute, traced: true, start: time.Now(),
			scratch: t.TempDir(), tr: newTracer(), res: newResult()}
		sr, ok := runStudy(b, b.tr, "traced", cfg)
		if !ok {
			t.Fatalf("GOMAXPROCS=%d: study failed: %v", procs, b.res.failures)
		}
		layerCounters(b.res, []*telemetry.Registry{sr.reg})
		probeWorld(b, "traced", sr.study.World)
		if b.res.failed > 0 {
			t.Fatalf("GOMAXPROCS=%d: checks failed: %v", procs, b.res.failures)
		}
		out := map[string]float64{}
		for _, m := range perLayer {
			if l, ok := b.res.metrics[m.Name]; ok && (m.Unit == "count" || m.Unit == "bytes") {
				out[m.Name] = l.value
			}
		}
		return out
	}
	serial, parallel := counts(1), counts(runtime.NumCPU())
	if len(serial) != 6 {
		t.Fatalf("got %d counts, want 6: %v", len(serial), serial)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("counts differ across GOMAXPROCS:\n1: %v\n%d: %v", serial, runtime.NumCPU(), parallel)
	}
}
