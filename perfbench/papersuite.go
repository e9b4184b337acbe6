package main

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/sched"
	"repro/internal/workloads"
)

// suiteTrials is paper-suite's fixed trial count per (app, tool) cell:
// small enough that a whole suite runs many times in one measurement.
const suiteTrials = 8

// paperSuite is the paper's evaluation: all 14 kernels × LLFI, REFINE and
// PINFI, each pass on a fresh in-memory cache and one shared executor with
// nproc workers, rendering Tables 4, 5 and 6 and Figure 5. Every pass draws
// a new seed from the workload seed, so a run samples many trials; after
// the timed passes the first seed runs again and must reproduce its tables
// exactly.
func paperSuite(r *run) error {
	type env struct {
		ex   *sched.Executor
		apps []campaign.App
		refs map[string][]uint64
	}
	e, resample, err := repeatSetup(r, 3, 0, func() (*env, error) {
		apps := workloads.Registry()
		refs, err := interpRefs(apps)
		if err != nil {
			return nil, err
		}
		return &env{sched.New(r.nproc), apps, refs}, nil
	}, func(e *env) { e.ex.Close() })
	if err != nil {
		return err
	}
	defer e.ex.Close()
	var cache *campaign.Cache
	onePass := func(seed uint64) (*pass, time.Duration, error) {
		start := time.Now()
		cache = campaign.NewCache()
		p, err := r.runCells(e.ex, cellsOf(e.apps), suiteTrials, seed, cache)
		if err != nil {
			return nil, 0, err
		}
		s := suiteOf(e.apps, suiteTrials, p.results)
		p.tables = r.render(s)
		wall := time.Since(start)
		r.checkGolden(s, e.refs)
		return p, wall, nil
	}

	if r.trace {
		if err := r.paperSuiteTraced(e.ex, e.apps, mix(r.seed, 0), onePass); err != nil {
			return err
		}
		st := cache.Stats() // the untraced pass's fresh in-memory cache
		r.set("cache.builds", float64(st.Builds), "count")
		r.set("cache.disk_hits", float64(st.DiskHits), "count")
		r.set("cache.quarantined", float64(st.Quarantined), "count")
		r.absent(persistMetrics...)
		r.absent(journalMetrics...)
		r.absent(serveMetrics...)
		return nil
	}

	var submit, ttfe []float64
	var trials, passes int
	var timed time.Duration
	var first string
	// At least three passes: 126 campaigns put ten beyond the 90th
	// percentile.
	for k := 0; k < 3 || timed.Seconds() < r.seconds; k++ {
		p, wall, err := onePass(mix(r.seed, uint64(k)))
		if err != nil {
			return err
		}
		if k == 0 {
			first = p.tables
		}
		timed += wall
		passes++
		if err := resample(); err != nil {
			return err
		}
		submit = append(submit, p.submit...)
		ttfe = append(ttfe, p.ttfe...)
		trials += p.trials
	}
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	again, _, err := onePass(mix(r.seed, 0))
	if err != nil {
		return err
	}
	r.gate(again.tables == first, "a repeated pass did not reproduce its tables")
	fmt.Printf("# tables seed=%d sha256=%s\n", mix(r.seed, 0), digest(first))
	r.set("wall_s", timed.Seconds()/float64(passes), "s")
	r.samples["wall_s"] = passes
	r.set("trials_per_s", float64(trials)/timed.Seconds(), "1/s")
	// A suite's unit of change is one campaign: its round and its
	// submission are the same interval.
	r.setPct("round_p50_ms", submit, 0.5)
	r.setPct("round_p90_ms", submit, 0.9)
	r.setPct("submit_p50_ms", submit, 0.5)
	r.setPct("submit_p90_ms", submit, 0.9)
	r.setPct("ttfe_p50_ms", ttfe, 0.5)
	return nil
}

// paperSuiteTraced runs one untraced pass and then the same suite as its
// constituent public calls on the same executor, which must reproduce the
// untraced tables bit for bit.
func (r *run) paperSuiteTraced(ex *sched.Executor, apps []campaign.App, seed uint64,
	onePass func(uint64) (*pass, time.Duration, error)) error {
	p, untraced, err := onePass(seed)
	if err != nil {
		return err
	}
	t := r.tracer
	since := time.Since(t.t0)
	start := time.Now()
	end := t.phase("pass", "paper-suite pass")
	runs, err := r.decompose(ex, cellsOf(apps), suiteTrials, seed, false)
	if err != nil {
		return err
	}
	results := map[[2]string]*campaign.Result{}
	for _, cr := range runs {
		results[cr.key()] = cr.res
	}
	var out string
	t.span("tables", "experiments.Suite.render", lTables, false, func() { out = r.render(suiteOf(apps, suiteTrials, results)) })
	end()
	traced := time.Since(start) - r.stageTime(runs)
	r.gate(out == p.tables, "traced decomposition does not reproduce the untraced tables")
	r.reportCells(runs)
	r.finishTrace(since, untraced, traced)
	return r.vmProbe(apps, seed)
}

// stageTime is the calibration time measureStages spent inside a
// decomposition, which is not part of the traced workload.
func (r *run) stageTime(runs []*cellRun) time.Duration {
	var d time.Duration
	for _, cr := range runs {
		st := cr.stages
		d += st.irBuild + st.fingerprint + st.opt + st.instrument + st.codegen + st.asm
	}
	return d
}

// finishTrace reports the layer breakdown of the traced spans since the
// given offset, the tracing overhead, and the scheduler efficiency: traced
// busy time outside the scheduler over the workers' capacity during the
// untraced run.
func (r *run) finishTrace(since, untraced, traced time.Duration) {
	busy := r.reportLayers(since)
	total := -busy[lSched]
	for _, v := range busy {
		total += v
	}
	r.set("sched.efficiency", total/(float64(r.nproc)*ms(untraced)), "frac")
	r.set("trace.untraced_wall_s", untraced.Seconds(), "s")
	r.set("trace.wall_s", traced.Seconds(), "s")
	r.set("trace.overhead_s", (traced - untraced).Seconds(), "s")
}

// mix derives an independent 64-bit value from a seed and a stream number
// (splitmix64).
func mix(seed, stream uint64) uint64 {
	z := seed + stream*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
