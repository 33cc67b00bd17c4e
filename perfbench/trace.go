package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed interval of the traced run. Spans of one study or
// service run share Run; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// stageEvent is one of the program's own stage spans, as delivered to
// Registry.SetSpanObserver: the observer runs when the span ends, so its
// start is the delivery time minus the reported duration.
type stageEvent struct {
	Run      string
	Stage    string
	Day      int
	Vertical string
	Start    time.Time
	End      time.Time
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing, which is how untraced runs stay untraced.
type tracer struct {
	epoch time.Time

	mu     sync.Mutex
	next   int64
	spans  []span
	stages []stageEvent
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span id, so a parent can be named before it is recorded;
// 0 on a nil tracer.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// record stores a finished span.
func (t *tracer) record(id, parent int64, run, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// timed runs fn inside a new span and returns its wall time; the wall
// time is measured whether or not the tracer records.
func (t *tracer) timed(run string, parent int64, name string, fn func()) time.Duration {
	id := t.id()
	start := time.Now()
	fn()
	end := time.Now()
	t.record(id, parent, run, name, start, end)
	return end.Sub(start)
}

// observe subscribes to reg's stage spans on behalf of run.
func (t *tracer) observe(reg *telemetry.Registry, run string) {
	if t == nil {
		return
	}
	reg.SetSpanObserver(func(ev telemetry.SpanEvent) {
		end := time.Now()
		t.mu.Lock()
		t.stages = append(t.stages, stageEvent{Run: run, Stage: ev.Stage, Day: ev.Day,
			Vertical: ev.Vertical, Start: end.Add(-ev.Duration), End: end})
		t.mu.Unlock()
	})
}

// stagesOf returns a copy of run's program stage events.
func (t *tracer) stagesOf(run string) []stageEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []stageEvent
	for _, e := range t.stages {
		if e.Run == run {
			out = append(out, e)
		}
	}
	return out
}

// attachStages turns run's program stage events into spans. "train"
// goes under the set-up span, "observe_vertical" under that day's
// "observe", observe, commit and traffic under the program's "day" span,
// and that under the benchmark's day span of the same day number (days,
// which may be nil when the benchmark cannot see the day boundaries).
func (t *tracer) attachStages(run string, setup int64, days map[int]int64) {
	evs := t.stagesOf(run)
	t.mu.Lock()
	defer t.mu.Unlock()
	observe, day := map[int]int64{}, map[int]int64{}
	ids := make([]int64, len(evs))
	for i, e := range evs {
		t.next++
		ids[i] = t.next
		switch e.Stage {
		case "observe":
			observe[e.Day] = ids[i]
		case "day":
			day[e.Day] = ids[i]
		}
	}
	for i, e := range evs {
		var parent int64
		switch e.Stage {
		case "train":
			parent = setup
		case "observe_vertical":
			parent = observe[e.Day]
		case "day":
			parent = days[e.Day]
		default:
			parent = day[e.Day]
		}
		t.spans = append(t.spans, span{ID: ids[i], Parent: parent, Run: run, Name: "core." + e.Stage,
			Start: int64(e.Start.Sub(t.epoch)), End: int64(e.End.Sub(t.epoch))})
	}
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curA, curB = v.a, v.b
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB - curA
	}
	return time.Duration(total)
}

// write stores every span and the per-name self times as JSON at path.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := map[string]float64{}
	for name, d := range selfTimes(spans) {
		self[name] = ms(d)
	}
	raw, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		SelfMS map[string]float64 `json:"self_ms"`
	}{spans, self})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
