package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/pinfi"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workloads"
)

const (
	// serveTrials is the size of every submitted campaign: small, so
	// per-campaign fixed costs dominate.
	serveTrials = 32
)

// serveEnv is one fi-serve deployment: a server on a loopback listener over
// a stdio shard pool of nproc workers, with a disk cache and a journal.
type serveEnv struct {
	dir      string
	cacheDir string
	pool     *shard.Pool
	journal  *campaign.Journal
	hs       *http.Server
	served   chan error
	client   *serve.Client
	requests atomic.Int64 // HTTP requests: submissions plus reconnects
	admitted atomic.Int64 // executions started by the server
	finished sync.Map     // Spec.Key() of every submission that returned
	deduped  atomic.Int64 // repeats submitted while their spec was in flight
	replayed atomic.Int64 // repeats submitted after their spec returned
}

func (r *run) serveSetup() (*serveEnv, error) {
	dir, err := os.MkdirTemp(r.work, "serve-")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{dir: dir, cacheDir: filepath.Join(dir, "cache")}
	// Warm the shared disk cache, so submissions pay campaign costs, not
	// first builds; workers run this same binary and hit it.
	if _, err := warmDiskCache(r, e.cacheDir, cellsOf(workloads.Registry())); err != nil {
		return e, err
	}
	if e.journal, err = campaign.OpenJournal(filepath.Join(dir, "journal")); err != nil {
		return e, err
	}
	if e.pool, err = shard.NewPool(r.nproc); err != nil {
		return e, err
	}
	srv, err := serve.NewServer(serve.Config{Pool: e.pool, CacheDir: e.cacheDir, Journal: e.journal,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "admitted") {
				e.admitted.Add(1)
			}
		}})
	if err != nil {
		return e, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	e.hs = &http.Server{Handler: srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.client = &serve.Client{Addr: ln.Addr().String(),
		HTTP: &http.Client{Transport: countingTransport{&e.requests, http.DefaultTransport}}}
	return e, nil
}

// close stops the server, drains the pool and removes the directories.
func (e *serveEnv) close() {
	if e.hs != nil {
		e.hs.Shutdown(context.Background())
		<-e.served
	}
	if e.pool != nil {
		e.pool.Close()
	}
	if e.journal != nil {
		e.journal.Close()
	}
	os.RemoveAll(e.dir)
}

type countingTransport struct {
	n  *atomic.Int64
	rt http.RoundTripper
}

func (c countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.rt.RoundTrip(req)
}

// submission is one client call and what it saw.
type submission struct {
	spec    campaign.Spec
	sum     *serve.Summary
	err     error
	latency time.Duration // submission to summary
	ttfe    time.Duration // submission to first trial event
	events  int
	ordered bool // trial events arrived as 0, 1, 2, ...
}

// specStream draws the seeded submission stream. Fresh submissions walk
// the suite's 42 (app, tool) cells in seeded permutations, each with a new
// seeded trial seed, so every stretch of the stream carries the same work
// mix. Every tenth submission repeats a uniformly chosen earlier one: src[i]
// is the index it repeats, or -1 for a fresh spec. A repeat whose original
// is still running is deduplicated onto it; one whose original has finished
// is replayed from the event log (submit counts which).
func specStream(seed uint64, n int) (specs []campaign.Spec, src []int) {
	rng := rand.New(rand.NewPCG(seed, 5))
	cells := cellsOf(workloads.Registry())
	var order []int
	for len(specs) < n {
		if len(specs)%10 == 9 {
			i := rng.IntN(len(specs))
			specs = append(specs, specs[i])
			src = append(src, i)
			continue
		}
		if len(order) == 0 {
			order = rng.Perm(len(cells))
		}
		c := cells[order[0]]
		order = order[1:]
		specs = append(specs, campaign.Spec{App: c.app.Name, Tool: c.tool.Name(),
			Trials: serveTrials, Seed: rng.Uint64() >> 1,
			Build: campaign.DefaultBuildOptions(), Costs: pinfi.DefaultCosts()})
		src = append(src, -1)
	}
	return specs, src
}

// twins returns a stretch with the same cells and the same repeat pattern as
// specs[:len(src)], whose src indexes all lie inside it, but fresh trial
// seeds: the same work mix, none of it cached or logged yet.
func twins(seed uint64, specs []campaign.Spec, src []int) []campaign.Spec {
	rng := rand.New(rand.NewPCG(seed, 6))
	out := make([]campaign.Spec, len(src))
	for i, j := range src {
		if j >= 0 {
			out[i] = out[j]
			continue
		}
		out[i] = specs[i]
		out[i].Seed = rng.Uint64() >> 1
	}
	return out
}

// submit runs one spec through the client. For a repeat it books whether
// an earlier submission of the spec had already returned (a replay of a
// finished run) or not (deduplicated onto a run in flight).
func (e *serveEnv) submit(spec campaign.Spec, repeat bool) *submission {
	s := &submission{spec: spec, ordered: true}
	key := spec.Key()
	if repeat {
		if _, done := e.finished.Load(key); done {
			e.replayed.Add(1)
		} else {
			e.deduped.Add(1)
		}
	}
	start := time.Now()
	s.sum, s.err = e.client.Run(context.Background(), spec, func(i int, _ campaign.TrialResult) {
		if s.events == 0 {
			s.ttfe = time.Since(start)
		}
		s.ordered = s.ordered && i == s.events
		s.events++
	})
	s.latency = time.Since(start)
	e.finished.Store(key, true)
	return s
}

// closedLoop runs callers goroutines, each submitting the next spec of the
// stream as soon as its previous call returns, until the stream ends or
// the deadline passes.
func closedLoop(callers int, specs []campaign.Spec, src []int, deadline time.Time,
	call func(campaign.Spec, bool) *submission) ([]*submission, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var subs []*submission
	start := time.Now()
	parallel(callers, callers, func(int) {
		for i := int(next.Add(1)) - 1; i < len(specs) && time.Now().Before(deadline); i = int(next.Add(1)) - 1 {
			s := call(specs[i], src[i] >= 0)
			mu.Lock()
			subs = append(subs, s)
			mu.Unlock()
		}
	})
	return subs, time.Since(start)
}

// serveSharded is fi-serve's default deployment under a closed loop of
// nproc clients submitting small campaigns.
func serveSharded(r *run) error {
	e, resample, err := repeatSetup(r, 2, setupEvery, r.serveSetup, (*serveEnv).close)
	if err != nil {
		e.close()
		return err
	}
	defer e.close()
	specs, src := specStream(r.seed, 100000)
	if r.trace {
		return r.serveTraced(e, specs, src)
	}
	// The timed phase runs in segments of setupEvery, with a set-up sample
	// between them, and then tops up to minSubs submissions, so ten lie
	// beyond the 90th percentile.
	const minSubs = 110
	var subs []*submission
	var timed time.Duration
	for timed.Seconds() < r.seconds {
		seg := min(setupEvery, time.Duration(r.seconds*float64(time.Second))-timed)
		more, d := closedLoop(r.nproc, specs[len(subs):], src[len(subs):], time.Now().Add(seg), e.submit)
		subs, timed = append(subs, more...), timed+d
		if err := resample(); err != nil {
			return err
		}
	}
	if len(subs) < minSubs {
		more, d := closedLoop(r.nproc, specs[len(subs):minSubs], src[len(subs):minSubs], time.Now().Add(time.Hour), e.submit)
		subs, timed = append(subs, more...), timed+d
	}
	r.set("peak_rss_mb", peakRSSMB(e.pool.Pids()...), "MB")
	if err := r.checkServe(e, subs); err != nil {
		return err
	}
	var lat, ttfe []float64
	trials := 0
	for _, s := range subs {
		lat = append(lat, ms(s.latency))
		ttfe = append(ttfe, ms(s.ttfe))
		trials += s.events
	}
	r.set("wall_s", timed.Seconds()/float64(len(subs))*10, "s")
	r.samples["wall_s"] = len(subs) / 10
	r.set("trials_per_s", float64(trials)/timed.Seconds(), "1/s")
	// A submission is this workload's unit of change: its round and its
	// submission are the same interval.
	r.setPct("round_p50_ms", lat, 0.5)
	r.setPct("round_p90_ms", lat, 0.9)
	r.setPct("submit_p50_ms", lat, 0.5)
	r.setPct("submit_p90_ms", lat, 0.9)
	r.setPct("ttfe_p50_ms", ttfe, 0.5)
	return nil
}

// checkServe gates the submissions and books their failures: every stream
// was complete and in order, resubmissions got identical summaries, the
// server executed each distinct Spec.Key() exactly once, and sampled
// summaries equal an in-process Campaign.Run of the same spec.
func (r *run) checkServe(e *serveEnv, subs []*submission) error {
	r.attempted += len(subs)
	first := map[string]*submission{}
	for _, s := range subs {
		if s.err != nil {
			r.failed++
			r.gate(false, "%s/%s seed %d: %v", s.spec.App, s.spec.Tool, s.spec.Seed, s.err)
			continue
		}
		r.failed += s.sum.Counts.HarnessFault
		r.gate(s.ordered && s.events == s.spec.Trials && s.sum.Trials == s.spec.Trials,
			"%s: stream of %d events (ordered=%v) for %d trials", s.sum.Key, s.events, s.ordered, s.spec.Trials)
		if f, ok := first[s.sum.Key]; ok {
			r.gate(*f.sum == *s.sum, "%s: resubmission summary differs", s.sum.Key)
			continue
		}
		first[s.sum.Key] = s
	}
	r.failed += int(e.requests.Load()) - len(subs) // reconnects
	r.failed += e.pool.Deaths()
	st, js := e.pool.Stats(), e.journal.Stats()
	r.failed += int(st.DiskErrors+st.Quarantined) + int(js.Errors)
	r.gate(int(e.admitted.Load()) == len(first), "server executed %d runs for %d distinct specs", e.admitted.Load(), len(first))
	fmt.Printf("# serve: %d submissions, %d repeats: %d deduplicated onto a run in flight, %d replayed from a finished run\n",
		len(subs), e.deduped.Load()+e.replayed.Load(), e.deduped.Load(), e.replayed.Load())
	// Re-running every distinct spec in-process would cost most of the
	// timed phase again; every third one, in submission order, is checked.
	var keys []string
	for i, s := range subs {
		if s.err == nil && first[s.sum.Key] == s && i%3 == 0 {
			keys = append(keys, s.sum.Key)
		}
	}
	cache := campaign.NewCache()
	var mu sync.Mutex
	var firstErr error
	parallel(r.nproc, len(keys), func(i int) {
		s := first[keys[i]]
		res, err := inProcess(s.spec, cache, 0)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			firstErr = err
			return
		}
		r.gate(res.Counts == s.sum.Counts && res.Cycles == s.sum.Cycles && res.Trials == s.sum.Trials,
			"%s/%s seed %d: served summary differs from in-process Campaign.Run", s.spec.App, s.spec.Tool, s.spec.Seed)
	})
	return firstErr
}

// inProcess runs a spec as an in-process campaign.
func inProcess(spec campaign.Spec, cache *campaign.Cache, workers int) (*campaign.Result, error) {
	app, err := workloads.ByName(spec.App)
	if err != nil {
		return nil, err
	}
	spec.Workers = workers
	c, err := campaign.NewFromSpec(spec, app, spec.Lo, spec.Trials, cache, nil)
	if err != nil {
		return nil, err
	}
	return c.Run(context.Background())
}

// serveTraced runs three stretches of n submissions on one caller, so each
// call runs alone on the machine. The first warms the workers' caches with
// the stretch's cells. The second and third are its twins (same cells and
// repeat pattern, fresh seeds): the second runs untraced, the third traced.
// Each fresh traced submission is preceded by an in-process Campaign.Run and
// a direct Pool.Run of a calibration twin (same cell, its own seed, so
// neither run's trial sections can reach another), so its Client.Run span
// can be split into serve, shard and campaign time.
func (r *run) serveTraced(e *serveEnv, specs []campaign.Spec, src []int) error {
	const n = 40
	src = src[:n]
	hour := time.Now().Add(time.Hour)
	subs, _ := closedLoop(1, specs[:n], src, hour, e.submit)
	plain, _ := closedLoop(1, twins(mix(r.seed, 1), specs, src), src, hour, e.submit)
	subs = append(subs, plain...)
	var untraced time.Duration
	for _, s := range plain {
		untraced += s.latency
	}
	stretch, calSpecs := twins(mix(r.seed, 2), specs, src), twins(mix(r.seed, 3), specs, src)
	t := r.tracer
	since := time.Since(t.t0)
	cal := map[[2]string]*cellRun{}
	var calCells []cell
	for _, s := range stretch {
		app, _ := workloads.ByName(s.App)
		tool, _ := campaign.ToolByName(s.Tool)
		c := cell{app, tool}
		if cal[c.key()] == nil {
			runs, err := r.decompose(nil, []cell{c}, 2, s.Seed, true)
			if err != nil {
				return err
			}
			cal[c.key()] = runs[0]
			calCells = append(calCells, c)
		}
	}
	// Both calibration runs find every binary in memory, as the served run
	// does in a worker warmed by the first stretch. The direct Pool.Run
	// shares the served disk cache, so its workers reuse those same
	// caches; the in-process run gets a disk cache of its own, so that it
	// too looks up and stores trial sections, but out of the pool's way.
	inProc, err := warmDiskCache(r, filepath.Join(e.dir, "cal-inproc"), calCells)
	if err != nil {
		return err
	}
	pooled, err := warmDiskCache(r, e.cacheDir, calCells)
	if err != nil {
		return err
	}
	var poolMs, overhead, replays, ratio []float64
	var traced time.Duration
	var callErr error
	k := 0
	more, _ := closedLoop(1, stretch, src, hour, func(spec campaign.Spec, rep bool) *submission {
		g := fmt.Sprintf("%s/%s/%d", spec.App, spec.Tool, spec.Seed)
		defer t.phase(g, "serve-sharded submission")()
		cs := calSpecs[k]
		k++
		var d1, d2 time.Duration
		fresh := !rep
		if fresh {
			var err error
			d1 = t.calib(g, "campaign.Campaign.Run", lRunner, func() { _, err = inProcess(cs, inProc, 0) })
			d2 = t.calib(g, "shard.Pool.Run", lShard, func() {
				app, _ := workloads.ByName(cs.App)
				var c *campaign.Campaign
				if c, err = campaign.NewFromSpec(cs, app, cs.Lo, cs.Trials, pooled, nil); err == nil {
					_, err = e.pool.Run(context.Background(), c)
				}
			})
			callErr = errors.Join(callErr, err)
		}
		// A submission running alone holds all nproc workers; its
		// capacity is split by the calibration runs' capacities.
		sp := t.open(g, "serve.Client.Run", lServe)
		sp.Width = r.nproc
		s := e.submit(spec, rep)
		if fresh {
			w := float64(r.nproc)
			cr := cal[[2]string{spec.App, spec.Tool}]
			vmMs := min(float64(spec.Trials)*cr.meanTrialMs(), w*ms(d1))
			sp.Split = map[string]float64{lVM: vmMs, lRunner: w*ms(d1) - vmMs, lShard: w * max(ms(d2-d1), 0)}
		}
		t.done(sp)
		traced += s.latency
		if fresh {
			poolMs = append(poolMs, ms(d2))
			ratio = append(ratio, ms(d2)/ms(d1))
			overhead = append(overhead, ms(s.latency-d2))
		} else if s.sum != nil {
			replays = append(replays, ms(s.latency))
		}
		return s
	})
	if callErr != nil {
		return callErr
	}
	if err := r.checkServe(e, append(subs, more...)); err != nil {
		return err
	}
	var cals []*cellRun
	for _, c := range calCells {
		cals = append(cals, cal[c.key()])
	}
	r.reportCells(cals)
	r.set("shard.campaign_ms_p50", quantile(poolMs, 0.5), "ms")
	r.set("shard.overhead_x", quantile(ratio, 0.5), "ratio")
	r.set("shard.deaths", float64(e.pool.Deaths()), "count")
	r.set("serve.overhead_ms", quantile(overhead, 0.5), "ms")
	r.set("serve.replay_ms_p50", quantile(replays, 0.5), "ms")
	r.set("serve.executions", float64(e.admitted.Load()), "count")
	r.set("serve.submissions", float64(len(subs)+len(more)), "count")
	js := e.journal.Stats()
	r.set("journal.appends", float64(js.Appended), "count")
	r.set("journal.errors", float64(js.Errors), "count")
	st := e.pool.Stats()
	r.set("cache.builds", float64(st.Builds), "count")
	r.set("cache.disk_hits", float64(st.DiskHits), "count")
	r.set("cache.quarantined", float64(st.Quarantined), "count")
	// Both twins' wall is their summed Client.Run latency: in the traced
	// one, the calibration calls ran between them.
	r.finishTrace(since, untraced, traced)
	r.absent(persistMetrics...)
	var apps []campaign.App
	for _, a := range workloads.Registry() {
		for _, t := range campaign.Tools {
			if cal[cell{a, t}.key()] != nil {
				apps = append(apps, a)
				break
			}
		}
	}
	return r.vmProbe(apps, specs[0].Seed)
}

// warmDiskCache builds and profiles every cell through a disk cache at dir
// and returns that cache, which then holds every cell in memory too.
func warmDiskCache(r *run, dir string, cells []cell) (*campaign.Cache, error) {
	cache, err := campaign.NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	var werr atomic.Value
	parallel(r.nproc, len(cells), func(i int) {
		if _, _, err := cache.BuildAndProfile(cells[i].app, cells[i].tool, campaign.DefaultBuildOptions(), pinfi.DefaultCosts()); err != nil {
			werr.Store(err)
		}
	})
	err, _ = werr.Load().(error)
	return cache, err
}
