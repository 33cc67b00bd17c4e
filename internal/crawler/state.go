package crawler

import (
	"container/heap"
	"sort"

	"repro/internal/simclock"
)

// This file exports and restores the crawler's mutable state for durable
// checkpoints. The verdict cache is state, not memoisation: whether a
// domain is re-fetched depends on when it was last checked, so a resumed
// run must see exactly the cache the interrupted run had. Likewise the
// circuit breakers — an open breaker short-circuits fetches, and losing it
// would change which requests reach the fault layer.

// CachedVerdict is one serialized verdict-cache entry.
type CachedVerdict struct {
	Domain  string
	Verdict Verdict
}

// CrawlerState is the crawler's complete mutable state.
type CrawlerState struct {
	Entries []CachedVerdict // sorted by Domain
	Fetches int64
}

// ExportCache captures the verdict cache across all shards. Safe to call
// when no checks are in flight (the day pipeline is quiescent between
// days). Shards partition by hash, so per-shard order is not global order:
// each shard's domains are sorted under its lock, and the sorted runs are
// merged — every key is sorted once, no entry is re-sorted.
func (c *Crawler) ExportCache() CrawlerState {
	st := CrawlerState{Fetches: c.fetches.Load()}
	runs := make(verdictRuns, 0, len(c.shards))
	n := 0
	for i := range c.shards {
		if run := c.shards[i].export(); len(run) > 0 {
			runs = append(runs, run)
			n += len(run)
		}
	}
	if n == 0 {
		return st
	}
	st.Entries = make([]CachedVerdict, 0, n)
	heap.Init(&runs)
	for len(runs) > 0 {
		st.Entries = append(st.Entries, runs[0][0])
		if runs[0] = runs[0][1:]; len(runs[0]) == 0 {
			heap.Pop(&runs)
		} else {
			heap.Fix(&runs, 0)
		}
	}
	return st
}

// export returns the shard's cache entries sorted by domain.
func (sh *crawlShard) export() []CachedVerdict {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	doms := make([]string, 0, len(sh.cache))
	for dom := range sh.cache {
		doms = append(doms, dom)
	}
	sort.Strings(doms)
	run := make([]CachedVerdict, len(doms))
	for i, dom := range doms {
		run[i] = CachedVerdict{Domain: dom, Verdict: sh.cache[dom]}
	}
	return run
}

// verdictRuns is a min-heap of non-empty runs sorted by domain, keyed by
// each run's head. Domains are unique across shards, so heads never tie.
type verdictRuns [][]CachedVerdict

func (h verdictRuns) Len() int           { return len(h) }
func (h verdictRuns) Less(i, j int) bool { return h[i][0].Domain < h[j][0].Domain }
func (h verdictRuns) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *verdictRuns) Push(x any)        { *h = append(*h, x.([]CachedVerdict)) }
func (h *verdictRuns) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// RestoreCache overwrites the verdict cache with a previously exported
// snapshot.
func (c *Crawler) RestoreCache(st CrawlerState) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.cache = nil
		sh.mu.Unlock()
	}
	for _, e := range st.Entries {
		sh := c.shard(e.Domain)
		sh.mu.Lock()
		if sh.cache == nil {
			sh.cache = make(map[string]Verdict)
		}
		sh.cache[e.Domain] = e.Verdict
		sh.mu.Unlock()
	}
	c.fetches.Store(st.Fetches)
}

// BreakerState is one domain's serialized circuit-breaker state.
type BreakerState struct {
	Domain   string
	CurDay   simclock.Day
	DayFail  int
	DaySucc  int
	FailDays int
	Open     bool
	OpenedOn simclock.Day
}

// ResilientState is the resilient fetcher's complete mutable state.
type ResilientState struct {
	Breakers []BreakerState // sorted by Domain
	Stats    FetchStats
}

// ExportState captures the fetcher's breakers and workload accounting.
func (rf *ResilientFetcher) ExportState() ResilientState {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	doms := make([]string, 0, len(rf.breakers))
	for dom := range rf.breakers {
		doms = append(doms, dom)
	}
	sort.Strings(doms)
	st := ResilientState{Stats: rf.stats}
	if len(doms) > 0 {
		st.Breakers = make([]BreakerState, len(doms))
	}
	for i, dom := range doms {
		br := rf.breakers[dom]
		st.Breakers[i] = BreakerState{
			Domain:   dom,
			CurDay:   br.curDay,
			DayFail:  br.dayFail,
			DaySucc:  br.daySucc,
			FailDays: br.failDays,
			Open:     br.open,
			OpenedOn: br.openedOn,
		}
	}
	return st
}

// RestoreState overwrites the fetcher's breakers and accounting. The retry
// policy and jitter seed are wiring rebuilt from config and study seed.
func (rf *ResilientFetcher) RestoreState(st ResilientState) {
	rf.mu.Lock()
	defer rf.mu.Unlock()
	rf.stats = st.Stats
	rf.breakers = make(map[string]*breaker, len(st.Breakers))
	for _, bs := range st.Breakers {
		rf.breakers[bs.Domain] = &breaker{
			curDay:   bs.CurDay,
			dayFail:  bs.DayFail,
			daySucc:  bs.DaySucc,
			failDays: bs.FailDays,
			open:     bs.Open,
			openedOn: bs.OpenedOn,
		}
	}
}
