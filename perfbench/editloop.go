package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/pinfi"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// editTrials is edit-loop's trial count per cell: small, so that the trials
// an edit re-injects stay a minority of each round's work.
const editTrials = 4

// editEnv is edit-loop's warmed state.
type editEnv struct {
	dir    string // the disk cache every round reopens
	ex     *sched.Executor
	apps   []campaign.App
	funcs  [][]string // each app's function names: the edit targets
	refs   map[string][]uint64
	tables string // the warm-up run's tables
	seed   uint64
	rng    *rand.Rand
	edited map[string]campaign.App // cumulative edits so far
	last   map[[2]string]*campaign.Result
}

// editLoop is FastFlip-style incremental re-analysis. Setup warms a disk
// cache with the whole suite. Each round then applies one more dead
// single-function edit (workloads.MutateFunc) to a seeded (app, func) pair,
// cumulatively, and regenerates the full suite's tables through a fresh
// NewDiskCache over the same directory — what a new fi-campaign invocation
// does. The edit is erased by dead-code elimination, so every round's
// tables must equal the warm-up run's.
func editLoop(r *run) error {
	e, resample, err := repeatSetup(r, 2, setupEvery, r.editSetup, func(e *editEnv) {
		e.ex.Close()
		os.RemoveAll(e.dir)
	})
	if err != nil {
		return err
	}
	defer e.ex.Close()
	if r.trace {
		return r.editLoopTraced(e)
	}
	var rounds, submit, ttfe []float64
	var trials int
	var timed time.Duration
	// At least minRounds rounds, so ten lie beyond the 90th percentile.
	const minRounds = 100
	for k := 0; k < minRounds || timed.Seconds() < r.seconds; k++ {
		app, fn := e.pick()
		start := time.Now()
		p, err := e.round(r, app, fn)
		if err != nil {
			return err
		}
		d := time.Since(start)
		timed += d
		rounds = append(rounds, ms(d))
		submit = append(submit, p.submit...)
		ttfe = append(ttfe, p.ttfe...)
		trials += p.trials
		if err := e.check(r, p, app, fmt.Sprintf("round %d (%s:%s)", k, app, fn)); err != nil {
			return err
		}
		if err := resample(); err != nil {
			return err
		}
	}
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	if err := e.checkCacheFree(r); err != nil {
		return err
	}
	fmt.Printf("# tables sha256=%s\n", digest(e.tables))
	r.set("wall_s", blockMedian(rounds, 10)/1000, "s")
	r.samples["wall_s"] = len(rounds) / 10
	r.set("trials_per_s", float64(trials)/timed.Seconds(), "1/s")
	r.setPct("round_p50_ms", rounds, 0.5)
	r.setPct("round_p90_ms", rounds, 0.9)
	r.setPct("submit_p50_ms", submit, 0.5)
	r.setPct("submit_p90_ms", submit, 0.9)
	r.setPct("ttfe_p50_ms", ttfe, 0.5)
	return nil
}

// editSetup warms a fresh disk cache with the whole suite.
func (r *run) editSetup() (*editEnv, error) {
	dir, err := os.MkdirTemp(r.work, "cache-")
	if err != nil {
		return nil, err
	}
	e := &editEnv{dir: dir, ex: sched.New(r.nproc), apps: workloads.Registry(),
		seed: mix(r.seed, 3), rng: rand.New(rand.NewPCG(r.seed, 4)),
		edited: map[string]campaign.App{}}
	if e.refs, err = interpRefs(e.apps); err != nil {
		return e, err
	}
	for _, a := range e.apps {
		var names []string
		for _, f := range a.Build().Funcs {
			names = append(names, f.Name)
		}
		e.funcs = append(e.funcs, names)
	}
	cache, err := campaign.NewDiskCache(dir)
	if err != nil {
		return e, err
	}
	p, err := r.runCells(e.ex, cellsOf(e.apps), editTrials, e.seed, cache)
	if err != nil {
		return e, err
	}
	s := suiteOf(e.apps, editTrials, p.results)
	e.tables = r.render(s)
	r.checkGolden(s, e.refs)
	e.last = p.results
	return e, nil
}

// pick draws the next edit target.
func (e *editEnv) pick() (app, fn string) {
	i := e.rng.IntN(len(e.apps))
	return e.apps[i].Name, e.funcs[i][e.rng.IntN(len(e.funcs[i]))]
}

// edit applies one more edit to the named app and returns the suite's apps
// with every edit so far.
func (e *editEnv) edit(app, fn string) ([]campaign.App, error) {
	cur, ok := e.edited[app]
	if !ok {
		cur, _ = workloads.ByName(app)
	}
	next, err := workloads.MutateFunc(cur, fn)
	if err != nil {
		return nil, err
	}
	e.edited[app] = next
	return e.current(), nil
}

func (e *editEnv) current() []campaign.App {
	apps := make([]campaign.App, len(e.apps))
	for i, a := range e.apps {
		if ed, ok := e.edited[a.Name]; ok {
			a = ed
		}
		apps[i] = a
	}
	return apps
}

// round applies an edit and regenerates every table through a fresh disk
// cache over the warmed directory.
func (e *editEnv) round(r *run, app, fn string) (*pass, error) {
	apps, err := e.edit(app, fn)
	if err != nil {
		return nil, err
	}
	cache, err := campaign.NewDiskCache(e.dir)
	if err != nil {
		return nil, err
	}
	p, err := r.runCells(e.ex, cellsOf(apps), editTrials, e.seed, cache)
	if err != nil {
		return nil, err
	}
	st := cache.Stats()
	r.failed += int(st.DiskErrors + st.Quarantined)
	p.tables = r.render(suiteOf(apps, editTrials, p.results))
	return p, nil
}

// check gates a round that edited app: its golden output still matches the
// interpreter run of the edited IR, and the tables equal the warm-up run's.
func (e *editEnv) check(r *run, p *pass, app, what string) error {
	ref, err := interpRef(e.edited[app])
	if err != nil {
		return err
	}
	e.refs[app] = ref
	r.checkGolden(suiteOf(e.current(), editTrials, p.results), e.refs)
	r.gate(p.tables == e.tables, "%s: tables differ from the warm-up run", what)
	e.last = p.results
	return nil
}

// checkCacheFree gates the composed results of every edited app on a
// cache-free monolithic run of its final edited version.
func (e *editEnv) checkCacheFree(r *run) error {
	for name, app := range e.edited {
		for _, tool := range campaign.Tools {
			res, err := campaign.New(app, tool, campaign.WithTrials(editTrials),
				campaign.WithSeed(e.seed), campaign.WithCache(nil), campaign.WithExecutor(e.ex)).Run(context.Background())
			if err != nil {
				return err
			}
			got := e.last[[2]string{name, tool.Name()}]
			r.gate(got != nil && got.Counts == res.Counts && got.Cycles == res.Cycles,
				"%s/%s: composed result differs from a cache-free run", name, tool.Name())
		}
	}
	return nil
}

// blockMedian is the median sum of consecutive blocks of k samples.
func blockMedian(xs []float64, k int) float64 {
	var blocks []float64
	for i := 0; i+k <= len(xs); i += k {
		var s float64
		for _, x := range xs[i : i+k] {
			s += x
		}
		blocks = append(blocks, s)
	}
	return quantile(blocks, 0.5)
}

// editLoopTraced alternates untraced rounds with traced rounds that apply
// the same edit again, so both see the same rebuild work. A traced round
// issues the round as its public calls: NewDiskCache, then per cell
// BuildAndProfile and a warm Campaign.Run, then the table rendering.
func (r *run) editLoopTraced(e *editEnv) error {
	const pairs = 12
	t := r.tracer
	since := time.Since(t.t0)
	var untraced, traced time.Duration
	var calib []*cellRun
	var loads, restores []float64
	var builds, hits, quarantined, reused, reinjected uint64
	for k := 0; k < pairs; k++ {
		app, fn := e.pick()
		start := time.Now()
		p, err := e.round(r, app, fn)
		if err != nil {
			return err
		}
		untraced += time.Since(start)
		if err := e.check(r, p, app, fmt.Sprintf("round %d", k)); err != nil {
			return err
		}

		apps, err := e.edit(app, fn)
		if err != nil {
			return err
		}
		cells := cellsOf(apps)
		var editedCells []cell
		for _, c := range cells {
			if c.app.Name == app {
				editedCells = append(editedCells, c)
			}
		}
		cal, err := r.decompose(nil, editedCells, 2, e.seed, true)
		if err != nil {
			return err
		}
		calib = append(calib, cal...)
		group := fmt.Sprintf("round-%d", k)
		end := t.phase(group, "edit-loop round")
		start = time.Now()
		var cache *campaign.Cache
		t.span(group, "campaign.NewDiskCache", lPersist, false, func() { cache, err = campaign.NewDiskCache(e.dir) })
		if err != nil {
			return err
		}
		results := map[[2]string]*campaign.Result{}
		var runSpans []*span
		var mu sync.Mutex
		var firstErr error
		parallel(r.nproc, len(cells), func(i int) {
			c := cells[i]
			var cr *cellRun
			for _, x := range cal {
				if x.key() == c.key() {
					cr = x
				}
			}
			s := t.open(group, "campaign.Cache.BuildAndProfile", lPersist)
			begin := time.Now()
			_, _, err := cache.BuildAndProfile(c.app, c.tool, campaign.DefaultBuildOptions(), pinfi.DefaultCosts())
			load := time.Since(begin)
			if cr != nil {
				// A miss builds, profiles and records fire points inside
				// the call; apportion those by the calibration run.
				s.Split = cr.stages.buildSplit(cr.build)
				if s.Split == nil {
					s.Split = map[string]float64{}
				}
				s.Split[lVM] = ms(cr.profile)
				s.Split[lInjectors] += ms(cr.fire)
			}
			t.done(s)
			s = t.open(group, "campaign.Campaign.Run", lPersist)
			begin = time.Now()
			var res *campaign.Result
			if err == nil {
				res, err = campaign.New(c.app, c.tool, campaign.WithTrials(editTrials), campaign.WithSeed(e.seed),
					campaign.WithCache(cache), campaign.WithWorkers(1)).Run(context.Background())
			}
			restore := time.Since(begin)
			t.done(s)
			mu.Lock()
			defer mu.Unlock()
			r.attempted++
			if err != nil {
				r.failed++
				firstErr = err
				return
			}
			results[c.key()] = res
			if cr == nil {
				loads = append(loads, ms(load))
				restores = append(restores, ms(restore))
			} else {
				runSpans = append(runSpans, s)
			}
		})
		if firstErr != nil {
			end()
			return firstErr
		}
		var out string
		t.span(group, "experiments.Suite.render", lTables, false, func() { out = r.render(suiteOf(apps, editTrials, results)) })
		traced += time.Since(start)
		end()
		r.gate(out == e.tables, "traced round %d: tables differ from the warm-up run", k)

		st, cs := cache.Stats(), cache.Compose()
		builds, hits, quarantined = builds+st.Builds, hits+st.DiskHits, quarantined+st.Quarantined
		reused, reinjected = reused+cs.TrialsReused, reinjected+cs.TrialsReinjected
		r.failed += int(st.DiskErrors + st.Quarantined)
		// The re-injected trials all belong to the edited app; charge them
		// to the VM at the calibrated trial cost, shared over its runs.
		var trialMs float64
		for _, cr := range cal {
			trialMs += cr.meanTrialMs() / float64(len(cal))
		}
		t.mu.Lock()
		for _, s := range runSpans {
			s.Split = map[string]float64{lVM: float64(cs.TrialsReinjected) * trialMs / float64(len(runSpans))}
		}
		t.mu.Unlock()
		e.last = results
	}
	if err := e.checkCacheFree(r); err != nil {
		return err
	}
	r.reportCells(calib)
	r.set("campaign.cache_load_ms", quantile(loads, 0.5), "ms")
	r.set("campaign.compose_restore_ms", quantile(restores, 0.5), "ms")
	r.set("cache.builds", float64(builds), "count")
	r.set("cache.disk_hits", float64(hits), "count")
	r.set("cache.quarantined", float64(quarantined), "count")
	r.set("compose.trials_reused", float64(reused), "count")
	r.set("compose.trials_reinjected", float64(reinjected), "count")
	r.set("compose.reuse_frac", float64(reused)/float64(max(reused+reinjected, 1)), "frac")
	r.finishTrace(since, untraced, traced)
	r.absent(journalMetrics...)
	r.absent(serveMetrics...)
	var edited []campaign.App
	for _, a := range e.current() {
		if _, ok := e.edited[a.Name]; ok {
			edited = append(edited, a)
		}
	}
	return r.vmProbe(edited, e.seed)
}
