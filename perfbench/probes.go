package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/brands"
	"repro/internal/checkpoint"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/crawler"
	"repro/internal/htmlparse"
	"repro/internal/searchsim"
	"repro/internal/simclock"
	"repro/internal/simweb"
)

// probeURLs is how many search-result URLs the layer probes time.
const probeURLs = 200

// checkpointProbeSaves is how many snapshots the checkpoint probe writes.
const checkpointProbeSaves = 3

// sampleURLs picks n distinct-slot URLs, seeded, from the search engine's
// current results (the last simulated day's SERPs) in (vertical, term,
// rank) order.
func sampleURLs(w *core.World, seed int64, n int) []string {
	var all []string
	for _, v := range brands.All() {
		w.Engine.EachSlot(v, func(_, _ int, s *searchsim.Slot) { all = append(all, s.URL) })
	}
	r := rand.New(rand.NewSource(int64(mix(seed, 1) >> 1)))
	n = min(n, len(all))
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(all)-i)
		all[i], all[j] = all[j], all[i]
	}
	return all[:n]
}

// probeWorld times single calls into the crawler, HTML, web, classifier
// and checkpoint-codec layers on a finished world, each call a span under
// one "probe" span of run.
func probeWorld(b *bench, run string, w *core.World) {
	tr, r := b.tr, b.res
	root := tr.id()
	start := time.Now()
	day := simclock.Day(w.NextDay() - 1)
	var check, fetch, render, terms, trips []float64
	for _, u := range sampleURLs(w, b.seed, probeURLs) {
		// A fresh detector per URL, so its render and term-set memos
		// start cold.
		det := crawler.NewDetector(w.Web)
		check = append(check, us(tr.timed(run, root, "crawler.CheckURL", func() { det.CheckURL(u, day) })))
		req := simweb.Request{URL: u, UserAgent: simweb.BrowserUA, Referrer: simweb.SearchReferrer, Day: day}
		var resp simweb.Response
		fetch = append(fetch, us(tr.timed(run, root, "simweb.Fetch", func() { resp = w.Web.Fetch(req) })))
		render = append(render, us(tr.timed(run, root, "crawler.Render", func() { crawler.Render(resp.Body, u, req.Referrer) })))
		terms = append(terms, us(tr.timed(run, root, "htmlparse.TermSet", func() { htmlparse.TermSet(resp.Body) })))
		trips = append(trips, us(tr.timed(run, root, "htmlparse.Triplets", func() { htmlparse.Triplets(resp.Body) })))
	}
	r.check(len(check) > 0, "%s: no search results to probe", run)
	r.set("crawler.checkurl_us", "us", median(check), len(check))
	r.set("simweb.fetch_us", "us", median(fetch), len(fetch))
	r.set("crawler.render_us", "us", median(render), len(render))
	r.set("htmlparse.termset_us", "us", median(terms), len(terms))
	r.set("htmlparse.triplets_us", "us", median(trips), len(trips))

	var model *classify.Model
	d := tr.timed(run, root, "classify.Train", func() { model = classify.Train(w.SeedDocs, classify.DefaultOptions()) })
	r.check(model != nil && len(model.Classes) > 1, "%s: classifier probe trained %v", run, model != nil)
	r.set("classify.train_probe_ms", "ms", ms(d), 1)

	var snap, back *core.StudySnapshot
	var raw []byte
	var encErr, decErr error
	exp := tr.timed(run, root, "World.Snapshot", func() { snap = w.Snapshot() })
	enc := tr.timed(run, root, "checkpoint.Encode", func() { raw, encErr = checkpoint.Encode(snap) })
	dec := tr.timed(run, root, "checkpoint.Decode", func() { back, decErr = checkpoint.Decode(raw) })
	r.check(encErr == nil && decErr == nil && back.NextDay == snap.NextDay && back.ConfigHash == snap.ConfigHash,
		"%s: checkpoint round trip: encode %v, decode %v", run, encErr, decErr)
	r.set("checkpoint.export_ms", "ms", ms(exp), 1)
	r.set("checkpoint.encode_ms", "ms", ms(enc), 1)
	r.set("checkpoint.decode_ms", "ms", ms(dec), 1)
	r.set("checkpoint.bytes", "bytes", float64(len(raw)), 1)
	tr.record(root, 0, run, "probe", start, time.Now())
}

// probeCheckpointSaves writes the world's snapshot a few times through a
// checkpoint.Manager and loads it back, for workloads that do not
// checkpoint themselves.
func probeCheckpointSaves(b *bench, w *core.World) {
	tr, r := b.tr, b.res
	const run = "checkpoint-probe"
	mgr, err := checkpoint.NewManager(checkpoint.Options{Dir: filepath.Join(b.scratch, "ckpt-probe")})
	if err != nil {
		r.fail(fmt.Errorf("checkpoint probe: %w", err))
		return
	}
	snap := w.Snapshot()
	var saves []float64
	for i := 0; i < checkpointProbeSaves; i++ {
		d := tr.timed(run, 0, "checkpoint.Save", func() { err = mgr.Save(snap) })
		r.check(err == nil, "checkpoint probe save: %v", err)
		saves = append(saves, ms(d))
	}
	var back *core.StudySnapshot
	d := tr.timed(run, 0, "checkpoint.Load", func() { back, err = mgr.Load() })
	r.check(err == nil && back.NextDay == snap.NextDay, "checkpoint probe load: %v", err)
	r.set("checkpoint.save_ms_p50", "ms", median(saves), len(saves))
	t := tail(saves)
	r.setNote("checkpoint.save_ms_tail", "ms", t.value, t.n, t.note())
	r.set("checkpoint.load_ms", "ms", ms(d), 1)
}
