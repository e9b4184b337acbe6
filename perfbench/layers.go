package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/campaign"
	"repro/internal/codegen"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/pinfi"
	"repro/internal/sched"
	"repro/internal/vm"
)

// probeTime bounds each of vmProbe's rate measurements.
const probeTime = time.Second

// cell is one (application, tool) campaign of a suite.
type cell struct {
	app  campaign.App
	tool campaign.Tool
}

func (c cell) String() string { return c.app.Name + "/" + c.tool.Name() }

// key identifies a cell in maps (App holds a function, so cell is not
// comparable).
func (c cell) key() [2]string { return [2]string{c.app.Name, c.tool.Name()} }

// cellsOf returns apps × the paper's three tools, in table order.
func cellsOf(apps []campaign.App) []cell {
	var out []cell
	for _, a := range apps {
		for _, t := range campaign.Tools {
			out = append(out, cell{a, t})
		}
	}
	return out
}

// parallel runs fn(0..n-1) on w goroutines and waits for all of them.
func parallel(w, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < min(w, n); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// each runs fn(0..n-1): on the executor when there is one, inside a span of
// the sched layer that parents the spans fn opens, else on nproc
// goroutines. The job span holds every worker for its duration, so its self
// time is the workers' capacity not spent inside fn's spans: the executor's
// queueing, claiming and dispatch, and its workers' idle tail.
func (r *run) each(ex *sched.Executor, calib bool, n int, fn func(i int)) {
	t := r.tracer
	if ex == nil {
		parallel(r.nproc, n, fn)
		return
	}
	s := t.open("sched", "sched.Executor.Submit", lSched)
	s.Calib, s.Width = calib, ex.Workers()
	prev := t.root.Swap(s.ID)
	ex.Submit(context.Background(), n, fn).Wait()
	t.root.Store(prev)
	t.done(s)
}

// interpRefs runs every application through the independent IR
// interpreter; its output streams are the expected golden outputs.
func interpRefs(apps []campaign.App) (map[string][]uint64, error) {
	refs := map[string][]uint64{}
	for _, a := range apps {
		out, err := interpRef(a)
		if err != nil {
			return nil, err
		}
		refs[a.Name] = out
	}
	return refs, nil
}

// interpRef is the interpreter's output stream for one application; the
// smoke test swaps it to prove a wrong expected output fails the run.
var interpRef = func(a campaign.App) ([]uint64, error) {
	ip := ir.NewInterp(a.Build())
	code, err := ip.Run("main")
	if err != nil || code != 0 {
		return nil, fmt.Errorf("interp %s: exit %d: %v", a.Name, code, err)
	}
	return append([]uint64(nil), ip.Output...), nil
}

// checkGolden gates every campaign's golden output on the interpreter's.
func (r *run) checkGolden(s *experiments.Suite, refs map[string][]uint64) {
	for _, app := range s.Order {
		for _, t := range s.Tools {
			res := s.Results[app][t.Name()]
			r.gate(res != nil && slices.Equal(res.Profile.Golden, refs[app]),
				"%s/%s: golden output differs from the IR interpreter", app, t.Name())
		}
	}
}

// suiteOf assembles a renderable suite from per-cell results.
func suiteOf(apps []campaign.App, trials int, results map[[2]string]*campaign.Result) *experiments.Suite {
	s := &experiments.Suite{Trials: trials, Results: map[string]map[string]*campaign.Result{},
		Tools: append([]campaign.Tool(nil), campaign.Tools...)}
	for _, a := range apps {
		s.Order = append(s.Order, a.Name)
		s.Results[a.Name] = map[string]*campaign.Result{}
	}
	for k, res := range results {
		s.Results[k[0]][k[1]] = res
	}
	return s
}

// render produces Tables 4, 5 and 6, Figure 4 and Figure 5, and checks the
// invariants every suite must hold: each cell ran exactly trials trials and
// every Figure 5 ratio is a positive number. Harness-fault trials are
// booked as failures.
func (r *run) render(s *experiments.Suite) string {
	for _, app := range s.Order {
		for _, t := range s.Tools {
			res := s.Results[app][t.Name()]
			if res == nil {
				r.gate(false, "%s/%s: no result", app, t.Name())
				return ""
			}
			r.failed += res.Counts.HarnessFault
			r.gate(res.Trials == s.Trials && res.Counts.Total() == s.Trials,
				"%s/%s: %d trials counted, want %d", app, t.Name(), res.Counts.Total(), s.Trials)
		}
	}
	// At a few trials per cell both tools can land every trial in one
	// outcome class; the chi-squared test is then undefined and Table 5
	// reports that instead, as part of the compared output.
	t5, err := s.Table5()
	if err != nil {
		t5 = "Table 5: " + err.Error() + "\n"
	}
	for _, t := range []campaign.Tool{campaign.LLFI, campaign.REFINE} {
		v := s.NormalizedTime(t)
		r.gate(v > 0 && !math.IsInf(v, 0), "figure 5: %s/PINFI = %v", t.Name(), v)
	}
	return s.Table6() + s.Figure4() + s.Table4(s.Order[0]) + t5 + s.Figure5()
}

func digest(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16] }

// pass is one suite's worth of campaigns submitted together.
type pass struct {
	results map[[2]string]*campaign.Result
	submit  []float64 // per campaign: submission to result, ms
	ttfe    []float64 // per campaign: submission to first trial, ms
	trials  int       // trials delivered
	tables  string    // rendered tables
}

// runCells submits every cell as a campaign on the shared executor at
// once, as experiments.RunSuite does, timing each from submission to its
// first trial and to its result.
func (r *run) runCells(ex *sched.Executor, cells []cell, trials int, seed uint64, cache *campaign.Cache) (*pass, error) {
	p := &pass{results: map[[2]string]*campaign.Result{}}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for _, c := range cells {
		wg.Add(1)
		go func(c cell) {
			defer wg.Done()
			var first time.Duration
			n := 0
			res, err := campaign.New(c.app, c.tool,
				campaign.WithTrials(trials), campaign.WithSeed(seed),
				campaign.WithCache(cache), campaign.WithExecutor(ex),
				campaign.WithObserver(func(int, campaign.TrialResult) {
					if n == 0 {
						first = time.Since(start)
					}
					n++
				})).Run(context.Background())
			end := time.Since(start)
			mu.Lock()
			defer mu.Unlock()
			r.attempted++
			if err != nil {
				r.failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", c, err)
				}
				return
			}
			p.results[c.key()] = res
			p.submit = append(p.submit, ms(end))
			p.ttfe = append(p.ttfe, ms(first))
			p.trials += n
		}(c)
	}
	wg.Wait()
	return p, firstErr
}

// cellRun is one cell executed as its constituent public calls.
type cellRun struct {
	cell
	bin      *campaign.Binary
	prof     *campaign.Profile
	res      *campaign.Result
	build    time.Duration
	profile  time.Duration
	fire     time.Duration
	trialDur []time.Duration
	instrs   int64
	stages   stages
}

// stages is the build pipeline split into the calls BuildBinary makes.
type stages struct {
	irBuild, fingerprint, opt, instrument, codegen, asm time.Duration
}

// measureStages times each stage of the build pipeline for one cell, as
// calibration: the results feed the stage metrics and the split of
// BuildBinary's span across the front, backend and injector layers.
func (r *run) measureStages(c cell) (stages, error) {
	var (
		st  stages
		m   *ir.Module
		res *codegen.Result
		err error
	)
	o := campaign.DefaultBuildOptions()
	t, g := r.tracer, "stages/"+c.String()
	st.irBuild = t.calib(g, "workloads.App.Build", lFront, func() { m = c.app.Build() })
	fresh := c.app.Build()
	st.fingerprint = t.calib(g, "ir.ModuleFingerprints", lFront, func() {
		sha256.Sum256([]byte(fresh.String()))
		ir.ModuleFingerprints(fresh)
	})
	st.opt = t.calib(g, "opt.OptimizeNoLower", lFront, func() { opt.OptimizeNoLower(m, o.Opt) })
	st.instrument = t.calib(g, c.tool.Name()+".InstrumentIR", lInjectors, func() { c.tool.InstrumentIR(m, o.FI) })
	st.opt += t.calib(g, "opt.Legalize", lFront, func() { opt.Legalize(m) })
	st.codegen = t.calib(g, "codegen.Compile", lBackend, func() { res, err = codegen.Compile(m) })
	if err != nil {
		return st, fmt.Errorf("%s: %w", c, err)
	}
	st.instrument += t.calib(g, c.tool.Name()+".InstrumentMachine", lInjectors, func() { _, err = c.tool.InstrumentMachine(res.Prog, o.FI) })
	if err != nil {
		return st, fmt.Errorf("%s: %w", c, err)
	}
	st.asm = t.calib(g, "asm.Assemble", lBackend, func() { _, err = asm.Assemble(res.Prog, asm.Options{MemSize: c.app.MemSize}) })
	return st, err
}

// buildSplit apportions a BuildBinary span of the given length by the
// cell's measured stage shares.
func (st stages) buildSplit(d time.Duration) map[string]float64 {
	front := st.irBuild + st.opt
	total := front + st.instrument + st.codegen + st.asm
	if total <= 0 {
		return nil
	}
	f := ms(d) / ms(total)
	return map[string]float64{lFront: f * ms(front), lInjectors: f * ms(st.instrument),
		lBackend: f * ms(st.codegen+st.asm)}
}

// decompose runs each cell as BuildBinary, RunProfile, FirePoints (for
// fire-point tools) and then one RunTrial per index, each call in its own
// span, as two jobs on ex (see each; nil runs them on nproc goroutines).
// With calib the spans only calibrate other measurements and do not count
// as the workload's busy time.
func (r *run) decompose(ex *sched.Executor, cells []cell, trials int, seed uint64, calib bool) ([]*cellRun, error) {
	t := r.tracer
	runs := make([]*cellRun, len(cells))
	for i, c := range cells {
		st, err := r.measureStages(c)
		if err != nil {
			return nil, err
		}
		runs[i] = &cellRun{cell: c, stages: st, trialDur: make([]time.Duration, trials),
			res: &campaign.Result{App: c.app.Name, Tool: c.tool, Trials: trials}}
	}
	costs := pinfi.DefaultCosts()
	var (
		mu       sync.Mutex
		firstErr error
	)
	r.each(ex, calib, len(runs), func(i int) {
		cr := runs[i]
		g := cr.String()
		var err error
		s := t.open(g, "campaign.BuildBinary", lRunner)
		s.Calib = calib
		start := time.Now()
		cr.bin, err = campaign.BuildBinary(cr.app, cr.tool, campaign.DefaultBuildOptions())
		cr.build = time.Since(start)
		s.Split = cr.stages.buildSplit(cr.build)
		t.done(s)
		if err == nil {
			cr.profile = t.span(g, "campaign.Binary.RunProfile", lVM, calib, func() { cr.prof, err = cr.bin.RunProfile(costs) })
		}
		if err == nil {
			cr.res.Profile = cr.prof
			if u, ok := cr.tool.(campaign.FirePointUser); ok && u.UsesFirePoints() {
				cr.fire = t.span(g, "campaign.Binary.FirePoints", lInjectors, calib, func() { cr.bin.FirePoints() })
			}
		}
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", g, err)
			}
			mu.Unlock()
		}
	})
	if firstErr != nil {
		return nil, firstErr
	}
	trs := make([][]campaign.TrialResult, len(runs))
	for i := range trs {
		trs[i] = make([]campaign.TrialResult, trials)
	}
	r.each(ex, calib, len(runs)*trials, func(k int) {
		cr, i := runs[k/trials], k%trials
		cr.trialDur[i] = t.span(cr.String(), "campaign.Binary.RunTrial", lVM, calib, func() {
			trs[k/trials][i] = cr.bin.RunTrial(cr.prof, costs, campaign.TrialSeed(seed, cr.tool, i))
		})
	})
	for k, cr := range runs {
		for _, tr := range trs[k] {
			cr.res.Counts.Add(tr.Outcome)
			cr.res.Cycles += tr.Cycles
			cr.instrs += tr.Instrs
		}
	}
	return runs, nil
}

// reportCells publishes the trial, profile and build metrics of a
// decomposition.
func (r *run) reportCells(runs []*cellRun) {
	var build, prof, fire, irb, fp, op, cg, as []float64
	var profInstrs int64
	var profTime time.Duration
	for _, tool := range campaign.Tools {
		var durs []float64
		var instrs int64
		var total time.Duration
		for _, cr := range runs {
			if cr.tool != tool {
				continue
			}
			for _, d := range cr.trialDur {
				durs = append(durs, ms(d))
				total += d
			}
			instrs += cr.instrs
		}
		n := tool.Name()
		r.set("trial."+n+".ms_p50", quantile(durs, 0.5), "ms")
		r.set("trial."+n+".instr_per_s", float64(instrs)/max(total.Seconds(), 1e-9), "1/s")
		r.set("trial."+n+".count", float64(len(durs)), "count")
	}
	for _, cr := range runs {
		build = append(build, ms(cr.build))
		prof = append(prof, ms(cr.profile))
		profInstrs += cr.prof.Budget / campaign.TimeoutFactor
		profTime += cr.profile
		if cr.fire > 0 {
			fire = append(fire, ms(cr.fire))
		}
		irb = append(irb, ms(cr.stages.irBuild))
		fp = append(fp, ms(cr.stages.fingerprint))
		op = append(op, ms(cr.stages.opt))
		cg = append(cg, ms(cr.stages.codegen))
		as = append(as, ms(cr.stages.asm))
	}
	r.set("campaign.build_ms", quantile(build, 0.5), "ms")
	r.set("campaign.profile_ms", quantile(prof, 0.5), "ms")
	r.set("vm.profile_instr_per_s", float64(profInstrs)/max(profTime.Seconds(), 1e-9), "1/s")
	r.set("pinfi.firepoints_ms", quantile(fire, 0.5), "ms")
	r.set("ir.build_ms", quantile(irb, 0.5), "ms")
	r.set("ir.fingerprint_ms", quantile(fp, 0.5), "ms")
	r.set("opt.ms", quantile(op, 0.5), "ms")
	r.set("codegen.ms", quantile(cg, 0.5), "ms")
	r.set("asm.ms", quantile(as, 0.5), "ms")
}

// meanTrialMs is the mean RunTrial time of a decomposed cell.
func (cr *cellRun) meanTrialMs() float64 {
	var t time.Duration
	for _, d := range cr.trialDur {
		t += d
	}
	return ms(t) / float64(max(len(cr.trialDur), 1))
}

// vmProbe measures the VM against its own microbenchmark rate: hook-free
// golden runs on a reused machine (BenchmarkVMThroughput's loop) against
// RunTrial, which allocates a fresh machine per call, and against pooled
// campaign trials — single-threaded and at nproc concurrency.
func (r *run) vmProbe(apps []campaign.App, seed uint64) error {
	t := r.tracer
	costs := pinfi.DefaultCosts()
	type built struct {
		bin  *campaign.Binary
		prof *campaign.Profile
	}
	bins := map[[2]string]built{}
	for _, c := range cellsOf(apps) {
		bin, err := campaign.BuildBinary(c.app, c.tool, campaign.DefaultBuildOptions())
		if err != nil {
			return err
		}
		prof, err := bin.RunProfile(costs)
		if err != nil {
			return err
		}
		bins[c.key()] = built{bin, prof}
	}
	var newMachine []float64
	for _, a := range apps {
		b := bins[cell{a, campaign.PINFI}.key()].bin
		for rep := 0; rep < 3; rep++ {
			newMachine = append(newMachine, ms(t.calib("vm", "campaign.Binary.NewMachine", lVM, func() { b.NewMachine() })))
		}
	}
	// rate runs body(k) for k = 0, 1, ... on w goroutines until probeTime
	// has passed and returns the instructions executed per second.
	rate := func(w int, body func(k int) int64) float64 {
		var instrs, next atomic.Int64
		start := time.Now()
		parallel(w, w, func(int) {
			for time.Since(start) < probeTime {
				instrs.Add(body(int(next.Add(1))))
			}
		})
		return float64(instrs.Load()) / time.Since(start).Seconds()
	}
	// golden keeps one machine per worker and app, as
	// BenchmarkVMThroughput reuses one machine.
	golden := func(w int) float64 {
		var instrs, next atomic.Int64
		start := time.Now()
		parallel(w, w, func(int) {
			machines := map[int]*vm.Machine{}
			for time.Since(start) < probeTime {
				i := int(next.Add(1)) % len(apps)
				m := machines[i]
				if m == nil {
					m = bins[cell{apps[i], campaign.PINFI}.key()].bin.NewMachine()
					machines[i] = m
				}
				t.calib("vm", "vm.Machine.Run", lVM, func() {
					m.Reset()
					m.Run()
				})
				instrs.Add(m.InstrCount)
			}
		})
		return float64(instrs.Load()) / time.Since(start).Seconds()
	}
	g1, gN := golden(1), golden(r.nproc)
	r.set("vm.golden_instr_per_s", g1, "1/s")
	r.set("vm.golden_instr_per_s.nproc", gN, "1/s")
	r.set("vm.new_machine_ms", quantile(newMachine, 0.5), "ms")
	for _, tool := range campaign.Tools {
		trials := func(w int) float64 {
			return rate(w, func(k int) int64 {
				b := bins[cell{apps[k%len(apps)], tool}.key()]
				var n int64
				t.calib("vm", "campaign.Binary.RunTrial", lVM, func() {
					n = b.bin.RunTrial(b.prof, costs, campaign.TrialSeed(seed, tool, k)).Instrs
				})
				return n
			})
		}
		n := tool.Name()
		r.set("vm.trial_vs_golden."+n+".serial", trials(1)/g1, "ratio")
		r.set("vm.trial_vs_golden."+n+".nproc", trials(r.nproc)/gN, "ratio")
		// Pooled: the campaign runner's own trial loop, one machine per
		// worker, over a cache that already holds every binary.
		cache := campaign.NewCache()
		for _, a := range apps {
			if _, _, err := cache.BuildAndProfile(a, tool, campaign.DefaultBuildOptions(), costs); err != nil {
				return err
			}
		}
		var instrs int64
		start := time.Now()
		for k := 0; k < len(apps) || time.Since(start) < probeTime; k++ {
			res, err := campaign.New(apps[k%len(apps)], tool, campaign.WithTrials(4*r.nproc), campaign.WithSeed(seed+uint64(k)),
				campaign.WithCache(cache), campaign.WithWorkers(r.nproc), campaign.WithRecords()).Run(context.Background())
			if err != nil {
				return err
			}
			for _, tr := range res.Records {
				instrs += tr.Instrs
			}
		}
		r.set("vm.pooled_vs_golden."+n, float64(instrs)/time.Since(start).Seconds()/gN, "ratio")
	}
	return nil
}
