package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	searchseizure "repro"
	"repro/internal/core"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// studyShape is a closed-loop study workload: one study at a time.
type studyShape struct {
	// config is the i-th study config of a run: every study and extra
	// set-up of a run builds its own world, so a run's medians span several.
	config func(seed int64, i uint64) searchseizure.Config
	// setups is how many times a run calls New for setup_s, counting
	// each study's own.
	setups int
}

var benchShape = studyShape{
	config: func(seed int64, i uint64) searchseizure.Config {
		cfg := searchseizure.BenchConfig()
		cfg.Seed = mix(seed, i)
		return cfg
	},
	setups: 5,
}

// paperDays caps paper_cold at its cold day: day 0 crawls every domain
// with empty caches. Warm days at this scale swing with GC timing more
// than any per-run median can absorb; bench_study covers warm days.
const paperDays = 1

var paperShape = studyShape{
	config: func(seed int64, i uint64) searchseizure.Config {
		cfg := searchseizure.DefaultConfig()
		cfg.Seed = mix(seed, i)
		cfg.MaxDays = paperDays
		return cfg
	},
	setups: 3,
}

func runBenchStudy(b *bench) { runStudyWorkload(b, benchShape) }
func runPaperCold(b *bench)  { runStudyWorkload(b, paperShape) }

// studyRun is one New → RunContext → every experiment.
type studyRun struct {
	id          string
	study       *searchseizure.Study
	data        *core.Dataset
	reg         *telemetry.Registry // nil when untraced
	setup       time.Duration
	days        []time.Duration // OnDayStart → OnDayEnd, in day order
	dayIDs      map[int]int64   // day → benchmark span id (traced)
	setupID     int64
	finalize    time.Duration // last OnDayEnd → RunContext return
	experiments time.Duration
	wall        time.Duration
	rt          rtDelta
}

func (s *studyRun) msPerDay() float64 { return ms(s.wall) / float64(len(s.days)) }

// runStudy runs cfg once, checking its outputs into b.res. With tr
// non-nil the study runs with telemetry and every call is a span.
func runStudy(b *bench, tr *tracer, id string, cfg searchseizure.Config) (*studyRun, bool) {
	sr := &studyRun{id: id, dayIDs: map[int]int64{}}
	var opts []searchseizure.Option
	if tr != nil {
		sr.reg = searchseizure.NewTelemetry()
		tr.observe(sr.reg, id)
		opts = append(opts, searchseizure.WithTelemetry(sr.reg))
	}
	runtime.GC()
	rt0 := readRuntime()
	rootID := tr.id()
	t0 := time.Now()

	sr.setupID = tr.id()
	var err error
	sr.study, err = searchseizure.New(cfg, opts...)
	sr.setup = time.Since(t0)
	tr.record(sr.setupID, rootID, id, "new", t0, t0.Add(sr.setup))
	b.res.check(err == nil, "%s: New: %v", id, err)
	if err != nil {
		return nil, false
	}

	w := sr.study.World
	var dayStart, lastEnd time.Time
	w.OnDayStart = func(simclock.Day) { dayStart = time.Now() }
	w.OnDayEnd = func(d simclock.Day) {
		lastEnd = time.Now()
		sr.days = append(sr.days, lastEnd.Sub(dayStart))
		if tr != nil {
			sid := tr.id()
			sr.dayIDs[int(d)] = sid
			tr.record(sid, rootID, id, "day", dayStart, lastEnd)
		}
	}
	runStart := time.Now()
	sr.data, err = sr.study.RunContext(context.Background())
	runEnd := time.Now()
	b.res.check(err == nil, "%s: RunContext: %v", id, err)
	if err != nil {
		return nil, false
	}
	if len(sr.days) == 0 {
		lastEnd = runStart
	}
	sr.finalize = runEnd.Sub(lastEnd)
	tr.record(tr.id(), rootID, id, "finalize", lastEnd, runEnd)

	expStart := time.Now()
	for _, e := range searchseizure.Experiments() {
		var tbl searchseizure.Table
		tr.timed(id, rootID, "experiment."+e.ID, func() { tbl, err = sr.study.Experiment(e.ID) })
		b.res.check(err == nil && strings.TrimSpace(tbl.String()) != "",
			"%s: experiment %s: err=%v, empty=%v", id, e.ID, err, strings.TrimSpace(tbl.String()) == "")
	}
	end := time.Now()
	sr.experiments = end.Sub(expStart)
	sr.wall = end.Sub(t0)
	tr.record(rootID, 0, id, "study", t0, end)
	sr.rt = runtimeDelta(rt0, readRuntime())
	if tr != nil {
		sr.reg.SetSpanObserver(nil)
		tr.attachStages(id, sr.setupID, sr.dayIDs)
	}

	b.res.check(sr.data.DaysRun == w.TargetDays() && len(sr.days) == sr.data.DaysRun,
		"%s: ran %d days (%d timed), want %d", id, sr.data.DaysRun, len(sr.days), w.TargetDays())
	dayFP, full := sr.data.DayFingerprint(), sr.data.RecomputeDayFingerprint()
	b.res.check(dayFP == full, "%s: DayFingerprint %#x != RecomputeDayFingerprint %#x", id, dayFP, full)
	return sr, true
}

// checkPin compares the fingerprint of a study workload's first study
// (config index 0) at defaultSeed with its pin.
func checkPin(b *bench, sr *studyRun) {
	if b.seed == defaultSeed {
		got, want := sr.data.Fingerprint(), pins[b.workload]
		b.res.check(got == want, "%s: fingerprint %#x != pinned %#x", sr.id, got, want)
	}
}

// runStudyWorkload is bench_study and paper_cold.
func runStudyWorkload(b *bench, sh studyShape) {
	if b.traced {
		tracedStudy(b, sh.config(b.seed, 0))
		return
	}
	var setups, perDay, days []float64
	for i := 1; i < sh.setups; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := searchseizure.New(sh.config(b.seed, uint64(100+i)))
		setups = append(setups, time.Since(t0).Seconds())
		b.res.check(err == nil && s != nil, "set-up %d: %v", i, err)
	}
	// Whole studies until the next one would overrun the budget.
	for k := 0; ; k++ {
		sr, ok := runStudy(b, nil, fmt.Sprintf("study-%d", k), sh.config(b.seed, uint64(k)))
		if !ok {
			break
		}
		if k == 0 {
			checkPin(b, sr)
		}
		setups = append(setups, sr.setup.Seconds())
		perDay = append(perDay, sr.msPerDay())
		for _, d := range sr.days {
			days = append(days, ms(d))
		}
		if time.Since(b.start)+sr.wall > b.budget {
			break
		}
	}
	r := b.res
	r.set("setup_s", "s", median(setups), len(setups))
	r.set("study_ms_per_day", "ms", median(perDay), len(perDay))
	r.set("day_ms_p50", "ms", percentile(days, 50), len(days))
	printTail(r, "day_ms", days)
}

// printTail prints the highest percentile of xs with enough samples
// beyond it, named by that percentile (e.g. day_ms_p90).
func printTail(r *result, prefix string, xs []float64) {
	if t := tail(xs); t.pct > 50 && t.pct < 100 {
		r.print(fmt.Sprintf("%s_p%g", prefix, t.pct), "ms", t.value, t.n, "")
	}
}

// tracedStudy is the --trace 1 run of a study workload: a paired
// untraced and traced study, then the layer probes.
func tracedStudy(b *bench, cfg searchseizure.Config) {
	plain, ok := runStudy(b, nil, "untraced", cfg)
	if !ok {
		return
	}
	plainFP, plainMS := plain.data.Fingerprint(), plain.msPerDay()
	traced, ok := runStudy(b, b.tr, "traced", cfg)
	if !ok {
		return
	}
	checkPin(b, traced)
	fp := traced.data.Fingerprint()
	b.res.check(fp == plainFP, "traced fingerprint %#x != untraced %#x", fp, plainFP)
	r := b.res
	r.set("telemetry.overhead_pct", "%", 100*(traced.msPerDay()/plainMS-1), 2)

	coreFromStages(b, b.tr.stagesOf(traced.id), dayWalls(traced))
	studyLayers(b, []*studyRun{traced})
	layerCounters(r, []*telemetry.Registry{traced.reg})
	days := float64(len(traced.days))
	r.set("runtime.alloc_mb_per_day", "MB", traced.rt.allocBytes/(1<<20)/days, len(traced.days))
	runtimeLayers(r, traced.rt)

	w := traced.study.World
	probeWorld(b, "traced", w)
	probeCheckpointSaves(b, w)
	runtime.GC()
	serviceProbe(b)
}

// dayWalls maps each day of sr to its benchmark-measured wall time.
func dayWalls(sr *studyRun) map[string]time.Duration {
	out := map[string]time.Duration{}
	for d, dur := range sr.days {
		out[dayKey(sr.id, d)] = dur
	}
	return out
}

func dayKey(run string, day int) string { return fmt.Sprintf("%s/%d", run, day) }

// studyLayers reports finalize, experiments and the layer-sum residual
// over the given studies (the mean of finalize and experiments, the
// largest residual).
func studyLayers(b *bench, runs []*studyRun) {
	var fin, exp []float64
	worst := 0.0
	for _, sr := range runs {
		fin = append(fin, ms(sr.finalize))
		exp = append(exp, ms(sr.experiments))
		sum := sr.setup + sr.finalize + sr.experiments
		for _, d := range sr.days {
			sum += d
		}
		pct := 100 * (ms(sr.wall) - ms(sum)) / ms(sr.wall)
		if pct < 0 {
			pct = -pct
		}
		worst = max(worst, pct)
	}
	r := b.res
	r.set("core.finalize_ms", "ms", mean(fin), len(fin))
	r.set("experiments.ms", "ms", mean(exp), len(exp))
	r.set("layers.residual_pct", "%", worst, len(runs))
	r.check(worst <= residualTolerancePct, "layer residual %.3f%% > %.1f%%", worst, residualTolerancePct)
}

// coreFromStages reports the day pipeline's stage split from the
// program's stage spans: observe, commit and traffic per day, the
// remainder of the day, and the observe straggler ratio (max over mean of
// observe_vertical). walls gives each day's wall time by dayKey; only
// those days count. It checks that the three stages fit inside their day.
func coreFromStages(b *bench, evs []stageEvent, walls map[string]time.Duration) {
	type dayStages struct {
		observe, commit, traffic time.Duration
		verts                    []time.Duration
	}
	per := map[string]*dayStages{}
	for _, e := range evs {
		k := dayKey(e.Run, e.Day)
		ds := per[k]
		if ds == nil {
			ds = &dayStages{}
			per[k] = ds
		}
		d := e.End.Sub(e.Start)
		switch e.Stage {
		case "observe":
			ds.observe += d
		case "commit":
			ds.commit += d
		case "traffic":
			ds.traffic += d
		case "observe_vertical":
			ds.verts = append(ds.verts, d)
		}
	}
	var obs, com, traf, other, strag []float64
	over := 0
	for k, wall := range walls {
		ds := per[k]
		if ds == nil {
			ds = &dayStages{}
		}
		rest := wall - ds.observe - ds.commit - ds.traffic
		if rest < -100*time.Microsecond {
			over++
		}
		obs = append(obs, ms(ds.observe))
		com = append(com, ms(ds.commit))
		traf = append(traf, ms(ds.traffic))
		other = append(other, ms(rest))
		if len(ds.verts) > 0 {
			var sum, hi time.Duration
			for _, v := range ds.verts {
				sum += v
				hi = max(hi, v)
			}
			if sum > 0 {
				strag = append(strag, float64(hi)*float64(len(ds.verts))/float64(sum))
			}
		}
	}
	r := b.res
	r.check(over == 0, "%d days where observe+commit+traffic exceed the day", over)
	n := len(walls)
	r.set("core.observe_ms", "ms", mean(obs), n)
	r.set("core.commit_ms", "ms", mean(com), n)
	r.set("core.traffic_ms", "ms", mean(traf), n)
	r.set("core.day_other_ms", "ms", mean(other), n)
	r.set("core.observe_straggler", "ratio", median(strag), len(strag))
}

// layerCounters reports the crawler, classifier and pool counters summed
// over the registries of the run's studies.
func layerCounters(r *result, regs []*telemetry.Registry) {
	c := map[string]int64{}
	for _, reg := range regs {
		for k, v := range reg.Snapshot().Counters {
			c[k] += v
		}
	}
	runs := c["crawler_detector_runs_total"]
	// Hits and in-flight shares are one decision split by scheduling;
	// only their sum is exact.
	reused := c["crawler_cache_hits_total"] + c["crawler_inflight_shared_total"]
	r.set("crawler.detector_runs", "count", float64(runs), 1)
	r.set("crawler.verdicts_reused", "count", float64(reused), 1)
	ratio := 0.0
	if runs+reused > 0 {
		ratio = float64(reused) / float64(runs+reused)
	}
	r.set("crawler.reuse_ratio", "ratio", ratio, 1)
	r.set("crawler.fetch_attempts", "count", float64(c["crawler_fetch_attempts_total"]), 1)
	r.set("crawler.fetch_retries", "count", float64(c["crawler_fetch_retries_total"]), 1)
	r.set("classify.epochs", "count", float64(c["classify_epochs_total"]), 1)
	for _, pool := range []string{"observe", "crawl", "train"} {
		busy, idle := c["pool_"+pool+"_busy_ns_total"], c["pool_"+pool+"_idle_ns_total"]
		util := 0.0
		if busy+idle > 0 {
			util = float64(busy) / float64(busy+idle)
		}
		r.set("parallel."+pool+"_util", "ratio", util, 1)
	}
	var trainMS float64
	var trains int64
	for _, reg := range regs {
		h := reg.Snapshot().Histograms["stage_train_ms"]
		trainMS += h.Sum
		trains += h.Count
	}
	if trains > 0 {
		trainMS /= float64(trains)
	}
	r.set("classify.train_ms", "ms", trainMS, int(trains))
}

// runtimeLayers reports the runtime's GC and scheduler figures.
func runtimeLayers(r *result, d rtDelta) {
	r.set("runtime.gc_cpu_frac", "ratio", d.gcCPUFrac, 1)
	r.setNote("runtime.gc_pause_ms_tail", "ms", d.gcPause.value, d.gcPause.n, d.gcPause.note())
	r.setNote("runtime.sched_latency_ms_tail", "ms", d.sched.value, d.sched.n, d.sched.note())
}
