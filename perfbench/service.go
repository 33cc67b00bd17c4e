package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	searchseizure "repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/studysvc"
	"repro/internal/telemetry"
)

// serviceShape sizes a service run: tenants launched at once over
// POST /v1/studies, and an open-loop reader at a fixed rate.
type serviceShape struct {
	tenants   int
	days      int
	maxActive int
	rate      float64 // reads per second
	minReads  int     // the reader runs until every tenant is done and this many were due
}

// mixShape is service_mix.
var mixShape = serviceShape{tenants: 6, days: 60, maxActive: 2, rate: 10}

// probeShape is the small service the study workloads' traced runs use
// to measure the service layer, which their studies do not touch.
var probeShape = serviceShape{tenants: 2, days: 8, maxActive: 2, rate: 20, minReads: 100}

// readKinds are the read routes the reader round-robins over; experiment
// joins once a tenant is complete.
var readKinds = []string{"get", "list", "events", "web", "experiment"}

// handlerTimes records, in traced runs, how long the /v1 handler itself
// took for every GET of each read route: the server's side of a read,
// without the client's queueing. (The program's api_req_* histograms hold
// the same times, but only to bucket resolution.)
type handlerTimes struct {
	mu sync.Mutex
	ms map[string][]float64
}

func (ht *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		d := ms(time.Since(start))
		ht.mu.Lock()
		ht.ms[readKind(r)] = append(ht.ms[readKind(r)], d)
		ht.mu.Unlock()
	})
}

// readKind names the read route of r ("" for anything else).
func readKind(r *http.Request) string {
	p := r.URL.Path
	switch {
	case r.Method != http.MethodGet:
		return ""
	case strings.Contains(p, "/web/"):
		return "web"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.Contains(p, "/experiments/"):
		return "experiment"
	case p == "/v1/studies":
		return "list"
	case strings.Count(p, "/") == 3:
		return "get"
	}
	return ""
}

// tenantSpecs are the launch specs of a service run: preset test, faults
// moderate, a checkpoint every day, each tenant its own seed.
func tenantSpecs(seed int64, sh serviceShape) []searchseizure.StudySpec {
	specs := make([]searchseizure.StudySpec, sh.tenants)
	for i := range specs {
		specs[i] = searchseizure.StudySpec{Preset: "test", Faults: "moderate", Days: sh.days,
			CheckpointEvery: 1, Seed: int64(mix(seed, uint64(10+i))>>2) + 1}
	}
	return specs
}

// combineFingerprints folds tenant fingerprints, in launch order, into one.
func combineFingerprints(fps []uint64) uint64 {
	var h uint64 = 14695981039346656037
	for _, fp := range fps {
		h = (h ^ fp) * 1099511628211
	}
	return h
}

// runServiceMix is the service_mix workload.
func runServiceMix(b *bench) {
	specs := tenantSpecs(b.seed, mixShape)
	// Untimed batch runs of the same specs: the oracle for the tenants'
	// fingerprints, and the set-up time of the tenants' config.
	var refs []*studyRun
	var fps []uint64
	var setups []float64
	for i, spec := range specs {
		cfg, err := spec.Config()
		if err != nil {
			b.res.fail(fmt.Errorf("tenant spec %d: %w", i, err))
			return
		}
		sr, ok := runStudy(b, b.tr, fmt.Sprintf("reference-%d", i), cfg)
		if !ok {
			return
		}
		fps = append(fps, sr.data.Fingerprint())
		setups = append(setups, sr.setup.Seconds())
		sr.study = nil // keep the figures, not the world
		refs = append(refs, sr)
	}
	if b.seed == defaultSeed {
		got := combineFingerprints(fps)
		b.res.check(got == pins[b.workload], "tenant fingerprints combine to %#x, pinned %#x", got, pins[b.workload])
	}
	r := b.res
	if !b.traced {
		sv := runService(b, nil, "service", mixShape, specs, fps)
		if sv == nil {
			return
		}
		r.set("setup_s", "s", median(setups), len(setups))
		r.set("study_ms_per_day", "ms", sv.msPerDay(), sv.tenantDays)
		r.set("day_ms_p50", "ms", percentile(sv.gaps, 50), len(sv.gaps))
		printTail(r, "day_ms", sv.gaps)
		r.print("tenant_days_per_s", "1/s", 1000/sv.msPerDay(), sv.tenantDays, "")
		all := sv.allReads()
		r.print("api_ms_p50", "ms", percentile(all, 50), len(all), "")
		printTail(r, "api_ms", all)
		t := tail(sv.lags)
		r.print("loadgen.lag_ms_tail", "ms", t.value, t.n, t.note())
		r.print("loadgen.requests", "req", float64(sv.sent), sv.sent, "")
		return
	}

	studyLayers(b, refs)
	plain := runService(b, nil, "untraced", mixShape, specs, fps)
	if plain == nil {
		return
	}
	plainMS := plain.msPerDay()
	runtime.GC()
	sv := runService(b, b.tr, "traced", mixShape, specs, fps)
	if sv == nil {
		return
	}
	r.set("telemetry.overhead_pct", "%", 100*(sv.msPerDay()/plainMS-1), 2)
	serviceLayers(b, sv)
	coreFromStages(b, sv.stages, sv.dayWalls)
	layerCounters(r, sv.tenantRegs)
	r.set("runtime.alloc_mb_per_day", "MB", sv.rt.allocBytes/(1<<20)/float64(sv.tenantDays), sv.tenantDays)
	runtimeLayers(r, sv.rt)

	// Probe the last tenant's finished world, and load its newest real
	// checkpoint.
	last := sv.tenants[len(sv.tenants)-1]
	data, ok := last.h.Dataset()
	if !ok {
		r.fail(fmt.Errorf("tenant %s has no dataset", last.id))
		return
	}
	probeWorld(b, "traced", data.World())
	saves := mergedHistogram(sv.tenantRegs, "checkpoint_save_ms")
	r.set("checkpoint.save_ms_p50", "ms", saves.Quantile(0.5), int(saves.Count))
	p := ladderPct(int(saves.Count))
	r.setNote("checkpoint.save_ms_tail", "ms", saves.Quantile(p/100), int(saves.Count), fmt.Sprintf("p%g of histogram", p))
	mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: last.h.Dir})
	if err != nil {
		r.fail(fmt.Errorf("open tenant checkpoints: %w", err))
		return
	}
	var snap *core.StudySnapshot
	d := b.tr.timed("traced", 0, "checkpoint.Load", func() { snap, err = mgr.Load() })
	r.check(err == nil && int(snap.NextDay) == mixShape.days, "load tenant checkpoint: %v", err)
	r.set("checkpoint.load_ms", "ms", ms(d), 1)
}

// serviceProbe measures the service layer for a study workload's traced
// run with a small service of its own.
func serviceProbe(b *bench) {
	sv := runService(b, b.tr, "service-probe", probeShape, tenantSpecs(b.seed, probeShape), nil)
	if sv != nil {
		serviceLayers(b, sv)
	}
}

// serviceLayers reports the API, service and load generator figures of a
// traced service run.
func serviceLayers(b *bench, sv *svcRun) {
	r := b.res
	r.set("api.launch_ms", "ms", median(sv.launches), len(sv.launches))
	t := tail(sv.gaps)
	r.setNote("studysvc.day_gap_ms_tail", "ms", t.value, t.n, t.note())
	for _, kind := range readKinds {
		t := tail(sv.reads[kind])
		r.setNote("api."+kind+"_ms_tail", "ms", t.value, t.n, t.note())
		// The handler's own time for the same reads at the same
		// percentile; the gap to the client's is queueing.
		srv := sv.handler.ms[kind]
		r.setNote("api."+kind+"_server_ms_tail", "ms", percentile(srv, t.pct), len(srv), t.note())
	}
	t = tail(sv.lags)
	r.setNote("loadgen.lag_ms_tail", "ms", t.value, t.n, t.note())
	r.set("loadgen.requests", "req", float64(sv.sent), sv.sent)
}

// mergedHistogram adds up one histogram over several registries (they
// share a bucket layout).
func mergedHistogram(regs []*telemetry.Registry, name string) telemetry.HistogramSnapshot {
	var out telemetry.HistogramSnapshot
	for _, reg := range regs {
		h, ok := reg.Snapshot().Histograms[name]
		if !ok {
			continue
		}
		if out.Counts == nil {
			out.Bounds = h.Bounds
			out.Counts = make([]int64, len(h.Counts))
		}
		for i, c := range h.Counts {
			out.Counts[i] += c
		}
		out.Count += h.Count
		out.Sum += h.Sum
	}
	return out
}

// tenant is one launched study as the benchmark follows it.
type tenant struct {
	id   string
	h    *studysvc.Handle
	web  []string // screened web-route paths
	days int

	mu       sync.Mutex
	events   int // events seen so far
	dayTimes []time.Time
	doneAt   time.Time
	done     bool
}

// watch follows the tenant's event log until it is terminal, stamping
// each day event as it arrives.
func (t *tenant) watch() {
	seq := 0
	take := func() {
		evs, _ := t.h.EventsSince(seq)
		now := time.Now()
		t.mu.Lock()
		for _, e := range evs {
			if e.Type == studysvc.EventDay {
				t.dayTimes = append(t.dayTimes, now)
			}
		}
		seq += len(evs)
		t.events = seq
		t.mu.Unlock()
	}
	for {
		_, notify := t.h.EventsSince(seq)
		take()
		select {
		case <-notify:
			continue
		case <-t.h.Done():
		}
		take()
		t.mu.Lock()
		t.doneAt, t.done = time.Now(), true
		t.mu.Unlock()
		return
	}
}

func (t *tenant) snapshot() (events int, done bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events, t.done
}

// svcRun is the outcome of one service run.
type svcRun struct {
	label       string
	reg         *telemetry.Registry // the service plane's, nil untraced
	handler     *handlerTimes
	tenants     []*tenant
	tenantRegs  []*telemetry.Registry
	launches    []float64 // ms
	firstLaunch time.Time
	lastDone    time.Time
	tenantDays  int
	gaps        []float64            // ms between consecutive day events
	reads       map[string][]float64 // ms from due time, by kind
	lags        []float64            // ms from due time to send
	sent        int
	stages      []stageEvent
	dayWalls    map[string]time.Duration
	rt          rtDelta
}

func (sv *svcRun) msPerDay() float64 {
	return ms(sv.lastDone.Sub(sv.firstLaunch)) / float64(sv.tenantDays)
}

func (sv *svcRun) allReads() []float64 {
	var all []float64
	for _, kind := range readKinds {
		all = append(all, sv.reads[kind]...)
	}
	return all
}

// runService launches specs on an in-process studysvc.Manager behind a
// loopback server, reads at sh.rate until every tenant is terminal, and
// checks every response. refFPs, when given, are the fingerprints each
// tenant must finish with.
func runService(b *bench, tr *tracer, label string, sh serviceShape, specs []searchseizure.StudySpec, refFPs []uint64) *svcRun {
	r := b.res
	sv := &svcRun{label: label, reads: map[string][]float64{}, dayWalls: map[string]time.Duration{},
		handler: &handlerTimes{ms: map[string][]float64{}}}
	if tr != nil {
		sv.reg = telemetry.New()
	}
	mgr, err := studysvc.NewManager(studysvc.Options{BaseDir: filepath.Join(b.scratch, label),
		Budget: runtime.GOMAXPROCS(0), MaxActive: sh.maxActive, Telemetry: sv.reg})
	if err != nil {
		r.fail(fmt.Errorf("%s: %w", label, err))
		return nil
	}
	handler := mgr.Handler()
	if tr != nil {
		handler = sv.handler.wrap(handler)
	}
	srv := httptest.NewServer(handler)
	conns := runtime.GOMAXPROCS(0)
	transport := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	client := &http.Client{Transport: transport, Timeout: time.Minute,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	var watchers sync.WaitGroup
	defer func() {
		transport.CloseIdleConnections()
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := mgr.Shutdown(ctx); err != nil {
			r.fail(fmt.Errorf("%s: %w", label, err))
		}
		watchers.Wait()
	}()
	runtime.GC()
	rt0 := readRuntime()
	root := tr.id()
	start := time.Now()
	sv.firstLaunch = start

	for i, spec := range specs {
		body, err := json.Marshal(spec)
		if err != nil {
			r.fail(err)
			return nil
		}
		var st studysvc.Status
		t0 := time.Now()
		code, err := doJSON(client, http.MethodPost, srv.URL+"/v1/studies", body, &st)
		t1 := time.Now()
		tr.record(tr.id(), root, label, "http.launch", t0, t1)
		r.check(err == nil && code == http.StatusCreated && st.ID != "", "%s: launch %d: code %d, %v", label, i, code, err)
		if err != nil || code != http.StatusCreated {
			return nil
		}
		sv.launches = append(sv.launches, ms(t1.Sub(t0)))
		h, ok := mgr.Get(st.ID)
		if !ok {
			r.fail(fmt.Errorf("%s: launched %s not in manager", label, st.ID))
			return nil
		}
		t := &tenant{id: st.ID, h: h, days: st.Days}
		tr.observe(h.Telemetry(), label+"/"+st.ID)
		sv.tenants = append(sv.tenants, t)
		sv.tenantRegs = append(sv.tenantRegs, h.Telemetry())
		watchers.Add(1)
		go func() {
			defer watchers.Done()
			t.watch()
		}()
		t.web = screenWeb(b, client, srv.URL, st.ID, mix(b.seed, uint64(100+i)))
		r.check(len(t.web) > 0, "%s: no servable web page for %s", label, st.ID)
	}

	rd := &reader{b: b, tr: tr, root: root, label: label, client: client, base: srv.URL, sv: sv, sh: sh}
	// Reads start once every tenant exists.
	rd.run(time.Now())
	watchers.Wait()
	sv.rt = runtimeDelta(rt0, readRuntime())
	tr.record(root, 0, label, "service", start, time.Now())

	for i, t := range sv.tenants {
		sv.lastDone = maxTime(sv.lastDone, t.doneAt)
		for j := 1; j < len(t.dayTimes); j++ {
			sv.gaps = append(sv.gaps, ms(t.dayTimes[j].Sub(t.dayTimes[j-1])))
		}
		var st studysvc.Status
		code, err := doJSON(client, http.MethodGet, srv.URL+"/v1/studies/"+t.id, nil, &st)
		ok := err == nil && code == http.StatusOK && st.State == studysvc.StateComplete && st.NextDay == t.days
		r.check(ok, "%s: tenant %s finished %q at day %d/%d (code %d, %v)", label, t.id, st.State, st.NextDay, t.days, code, err)
		if refFPs != nil {
			want := fmt.Sprintf("%#x", refFPs[i])
			r.check(st.Fingerprint == want, "%s: tenant %s fingerprint %s != batch run %s", label, t.id, st.Fingerprint, want)
		}
		sv.tenantDays += st.NextDay
		if tr != nil {
			t.h.Telemetry().SetSpanObserver(nil)
			sv.addStages(tr, label+"/"+t.id)
			tr.attachStages(label+"/"+t.id, 0, nil)
		}
	}
	return sv
}

// addStages collects a tenant's stage events and its day walls (the
// program's day span), skipping the first day seen: the observer was
// installed after launch, so that day may be partial.
func (sv *svcRun) addStages(tr *tracer, run string) {
	evs := tr.stagesOf(run)
	first := -1
	for _, e := range evs {
		if e.Stage == "day" && (first < 0 || e.Day < first) {
			first = e.Day
		}
	}
	for _, e := range evs {
		if e.Day == first {
			continue
		}
		sv.stages = append(sv.stages, e)
		if e.Stage == "day" {
			sv.dayWalls[dayKey(run, e.Day)] = e.End.Sub(e.Start)
		}
	}
}

func maxTime(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// webCandidates is how many of a tenant's domains are screened for the
// web route.
const webCandidates = 8

// screenWeb picks web-route paths for a tenant: a seeded sample of its
// domains, kept if a first fetch is served. The fault plan is a pure
// function of the request, so a page served once is served every time
// (an injected 5xx is an answer, a dropped connection is not).
func screenWeb(b *bench, client *http.Client, base, id string, seed uint64) []string {
	var ds struct {
		Domains []string `json:"domains"`
	}
	code, err := doJSON(client, http.MethodGet, base+"/v1/studies/"+id+"/domains", nil, &ds)
	b.res.check(err == nil && code == http.StatusOK, "domains of %s: code %d, %v", id, code, err)
	rnd := rand.New(rand.NewSource(int64(seed >> 1)))
	var out []string
	perm := rnd.Perm(len(ds.Domains))
	for _, k := range perm[:min(webCandidates, len(perm))] {
		path := fmt.Sprintf("/v1/studies/%s/web/?simhost=%s&u=/", id, ds.Domains[k])
		if ok, _ := webOK(client, base+path); ok {
			out = append(out, path)
		}
	}
	return out
}

// webOK fetches a web-route page whole. A 2xx answer, or a 5xx carrying
// the injection marker, is a served page.
func webOK(client *http.Client, url string) (bool, error) {
	resp, err := client.Get(url)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, err
	}
	if resp.StatusCode/100 == 2 || (resp.StatusCode >= 500 && bytes.Contains(body, []byte("(injected)"))) {
		return true, nil
	}
	return false, fmt.Errorf("status %d", resp.StatusCode)
}

// doJSON sends one request and decodes a JSON answer into out.
func doJSON(client *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(raw, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// reader is the open-loop load generator: request i is due at
// start + i/rate whether or not earlier ones have finished, and waits for
// one of at most GOMAXPROCS connections.
type reader struct {
	b      *bench
	tr     *tracer
	root   int64
	label  string
	client *http.Client
	base   string
	sv     *svcRun
	sh     serviceShape

	mu sync.Mutex // guards sv.reads, sv.lags, sv.sent
}

type readJob struct {
	i   int
	due time.Time
}

func (rd *reader) run(start time.Time) {
	jobs := make(chan readJob)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				rd.do(j)
			}
		}()
	}
	for i := 0; ; i++ {
		due := start.Add(time.Duration(float64(i) / rd.sh.rate * float64(time.Second)))
		if i >= rd.sh.minReads && rd.allDone() {
			break
		}
		time.Sleep(time.Until(due))
		jobs <- readJob{i, due}
	}
	close(jobs)
	wg.Wait()
}

func (rd *reader) allDone() bool {
	for _, t := range rd.sv.tenants {
		if _, done := t.snapshot(); !done {
			return false
		}
	}
	return true
}

// do sends read j: the j-th kind of the rotation (experiment only once
// some tenant is complete) against the tenant whose turn it is.
func (rd *reader) do(j readJob) {
	var complete []*tenant
	for _, t := range rd.sv.tenants {
		if _, done := t.snapshot(); done {
			complete = append(complete, t)
		}
	}
	kinds := readKinds[:len(readKinds)-1]
	if len(complete) > 0 {
		kinds = readKinds
	}
	kind := kinds[j.i%len(kinds)]
	round := j.i / len(kinds)
	t := rd.sv.tenants[round%len(rd.sv.tenants)]
	sent := time.Now()
	var err error
	switch kind {
	case "get":
		var st studysvc.Status
		var code int
		code, err = doJSON(rd.client, http.MethodGet, rd.base+"/v1/studies/"+t.id, nil, &st)
		if err == nil && (code != http.StatusOK || st.ID != t.id) {
			err = fmt.Errorf("status of %s: code %d id %q", t.id, code, st.ID)
		}
	case "list":
		var ls struct {
			Studies []studysvc.Status `json:"studies"`
		}
		var code int
		code, err = doJSON(rd.client, http.MethodGet, rd.base+"/v1/studies", nil, &ls)
		if err == nil && (code != http.StatusOK || len(ls.Studies) != len(rd.sv.tenants)) {
			err = fmt.Errorf("list: code %d, %d studies", code, len(ls.Studies))
		}
	case "events":
		err = rd.events(t)
	case "web":
		if len(t.web) == 0 {
			err = fmt.Errorf("no servable web page")
			break
		}
		_, err = webOK(rd.client, rd.base+t.web[round%len(t.web)])
	case "experiment":
		ct := complete[round%len(complete)]
		ids := searchseizure.ExperimentIDs()
		var tbl struct {
			Text string `json:"text"`
		}
		var code int
		exp := ids[round%len(ids)]
		code, err = doJSON(rd.client, http.MethodGet, rd.base+"/v1/studies/"+ct.id+"/experiments/"+exp, nil, &tbl)
		if err == nil && (code != http.StatusOK || strings.TrimSpace(tbl.Text) == "") {
			err = fmt.Errorf("experiment %s of %s: code %d, empty=%v", exp, ct.id, code, tbl.Text == "")
		}
	}
	end := time.Now()
	rd.tr.record(rd.tr.id(), rd.root, rd.label, "http."+kind, sent, end)
	rd.b.res.check(err == nil, "%s: %s read of %s: %v", rd.label, kind, t.id, err)
	rd.mu.Lock()
	rd.sv.reads[kind] = append(rd.sv.reads[kind], ms(end.Sub(j.due)))
	rd.sv.lags = append(rd.sv.lags, ms(sent.Sub(j.due)))
	rd.sv.sent++
	rd.mu.Unlock()
}

// eventsTail is how many of the newest events an events read asks for.
const eventsTail = 5

// events reads the newest events of t: the stream from ?from= delivers
// what exists at once and then waits for more, so the read ends after
// the lines it asked for.
func (rd *reader) events(t *tenant) error {
	n, _ := t.snapshot()
	from := max(0, n-eventsTail)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/v1/studies/%s/events?from=%d", rd.base, t.id, from), nil)
	if err != nil {
		return err
	}
	resp, err := rd.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: code %d", t.id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	for k := from; k < n; k++ {
		if !sc.Scan() {
			return fmt.Errorf("events of %s: stream ended at %d of %d: %v", t.id, k, n, sc.Err())
		}
		var ev studysvc.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Seq != k {
			return fmt.Errorf("events of %s: line %d: seq %d, %v", t.id, k, ev.Seq, err)
		}
	}
	return nil
}
