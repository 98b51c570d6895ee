// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Tables 1–6, Figures 2–7) on the
// synthetic-workload substrate, printing the same rows and series the
// paper reports. See DESIGN.md for the entry-point map and the
// fidelity notes on paper-vs-measured results.
//
// Every grid of independent runs is executed through internal/runner, so
// the harness scales across cores; results are assembled in submission
// order, making table output byte-identical for any Workers value.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"

	"mcd/internal/control"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/runner"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// SlewNsPerMHz is the regulator slew of every harness cell, and of a
// wire request that leaves its slew unset: the XScale rate
// (dvfs.DefaultSlewNsPerMHz) compressed 10× with the control interval
// (DESIGN.md, "time-scale compression").
const SlewNsPerMHz = 4.91

// Options scales the experiments. The paper simulates 50–400 M
// instructions per benchmark; these runs are scaled down (DESIGN.md,
// "time-scale compression"): the control interval is shrunk with the
// window so each run spans a paper-like number of control intervals, and
// the regulator slew is SlewNsPerMHz.
type Options struct {
	Window         uint64 // measured instructions per run
	Warmup         uint64 // cache/predictor warmup instructions
	IntervalLength uint64 // controller sampling period
	OfflineIters   int
	// Fidelity selects the simulation tier for every grid cell ("" or
	// sim.FidelityExact: the default cycle-exact engine,
	// sim.FidelitySampled: interval sampling with checkpointed warmup
	// reuse); SampleEvery is the sampled tier's detailed-interval cadence
	// (zero: sim.DefaultSampleEvery). Sampled cells key apart from exact
	// ones in the result store, so the tiers never alias.
	Fidelity    string
	SampleEvery int
	// Workers bounds the number of simulations running concurrently;
	// zero or negative means GOMAXPROCS. Results do not depend on it.
	Workers int
	// Benchmarks filters the catalog by name; empty means all 30.
	Benchmarks []string
	// Log receives progress lines; nil discards them. Writes are
	// serialized by the harness.
	Log io.Writer
	// Progress, if non-nil, is called (serialized) as each run of a
	// batch finishes — the hook the serving layer's job progress rides
	// on. It never changes results.
	Progress func(done, total int, name string)
	// Cache, if non-nil, is consulted before every grid cell — including
	// the compound off-line and Global(·) cells, which are keyed by
	// their spec plus search parameters — so repeated sweeps and tables
	// skip completed simulations. A hit is byte-identical to a
	// recompute, so output does not depend on cache state.
	Cache *resultcache.Cache
	// Context, if non-nil, cancels the harness between runs: after
	// cancellation no new simulation starts and the batch panics with
	// the context error once running tasks drain (the serving layer
	// recovers it into a failed job).
	Context context.Context
	// Exec, if non-nil, executes registry-resolved grid cells out of
	// process (the distributed fabric's dispatch hook): each cell is
	// handed over with its content address and re-executable
	// description, and the returned canonical encoding is decoded in
	// place of a local simulation — byte-identical by the determinism
	// contract. Cells whose key cannot be computed run locally; the
	// hook owns all caching, so Cache is not consulted for dispatched
	// cells.
	Exec ExecFunc
}

// DefaultOptions returns the paper-scale configuration: the CLIs'
// default when -quick is off.
func DefaultOptions() Options {
	return Options{
		Window:         400_000,
		Warmup:         200_000,
		IntervalLength: 1_000,
		OfflineIters:   5,
	}
}

// QuickOptions returns a reduced scale suitable for `go test -bench`.
func QuickOptions() Options {
	o := DefaultOptions()
	o.Window = 120_000
	o.Warmup = 60_000
	o.IntervalLength = 500
	o.OfflineIters = 3
	o.Benchmarks = []string{
		"adpcm", "epic", "mesa", "em3d", "mcf", "power",
		"gzip", "vortex", "art", "swim",
	}
	return o
}

// logMu serializes progress output across a parallel batch; Options is
// copied by value, so the lock must live outside it.
var logMu sync.Mutex

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		logMu.Lock()
		defer logMu.Unlock()
		fmt.Fprintf(o.Log, format, args...)
	}
}

func (o Options) config() pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.SlewNsPerMHz = SlewNsPerMHz
	return cfg
}

func (o Options) catalog() []workload.Benchmark {
	all := workload.Catalog()
	if len(o.Benchmarks) == 0 {
		return all
	}
	want := map[string]bool{}
	for _, n := range o.Benchmarks {
		want[n] = true
	}
	var out []workload.Benchmark
	for _, b := range all {
		if want[b.Name] {
			out = append(out, b)
		}
	}
	return out
}

// Comparison bundles every configuration's run of one benchmark.
type Comparison struct {
	Bench workload.Benchmark

	Sync    stats.Result // fully synchronous, 1 GHz
	MCDBase stats.Result // MCD, all domains at maximum
	AD      stats.Result // Attack/Decay
	Dyn1    stats.Result // off-line Dynamic-1%
	Dyn5    stats.Result // off-line Dynamic-5%

	GlobalAD stats.Result // global scaling matched to AD's degradation
	GlobalD1 stats.Result
	GlobalD5 stats.Result
}

// AttachCache wires a disk-backed result store into the options — the
// CLIs' -cache flag. An empty dir is a no-op.
func (o *Options) AttachCache(dir string) error {
	if dir == "" {
		return nil
	}
	c, err := resultcache.New(resultcache.Options{Dir: dir})
	if err != nil {
		return err
	}
	o.Cache = c
	return nil
}

// controlRun is the controller-independent run description of one grid
// cell — exactly what a service request for the same cell resolves, so
// the two address spaces coincide.
func (o Options) controlRun(b workload.Benchmark) control.Run {
	return control.Run{
		Config:         o.config(),
		Profile:        b.Profile,
		Window:         o.Window,
		Warmup:         o.Warmup,
		IntervalLength: o.IntervalLength,
		Fidelity:       o.Fidelity,
		SampleEvery:    o.SampleEvery,
	}
}

// resolvedTask builds one grid-cell task through the controller
// registry: the cell is addressed by the control.Resolve-derived
// canonical key (like SweepController's cells and every service
// request), so a -cache DIR shared between the harness CLIs and
// mcdserve reuses equivalent cells instead of double-computing them. A
// resolution error surfaces as the task's error.
func (o Options) resolvedTask(bench, label, name string, p control.Params, run control.Run) runner.Task[stats.Result] {
	res, err := control.Resolve(name, p)
	if err != nil {
		return runner.Task[stats.Result]{Name: label, Run: func(context.Context) (stats.Result, error) {
			return stats.Result{}, err
		}}
	}
	return o.controlTask(bench, label, name, p, res, run)
}

// mapTasks fans tasks out on the options' pool, logging progress and
// returning results in submission order. A run that panicked re-panics
// here with its task name attached (*runner.PanicError), after the rest
// of the batch has drained; so does the context error when Options.
// Context is cancelled.
func (o Options) mapTasks(tasks []runner.Task[stats.Result]) []stats.Result {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	outs, _ := runner.Map(ctx, tasks, runner.Options{
		Workers: o.Workers,
		OnDone: func(done, total int, name string) {
			o.logf("[%3d/%3d] %s\n", done, total, name)
			if o.Progress != nil {
				o.Progress(done, total, name)
			}
		},
	})
	res := make([]stats.Result, len(outs))
	for i, u := range outs {
		if u.Err != nil {
			runner.Repanic(u.Err)
		}
		res[i] = u.Value
	}
	return res
}

// SplitNames parses a comma-separated benchmark list as the CLIs accept
// it: surrounding whitespace is trimmed and empty entries dropped.
func SplitNames(s string) []string {
	var names []string
	for _, n := range strings.Split(s, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// Index layout of the phase-1 task block per benchmark.
const (
	cSync = iota
	cBase
	cAD
	cDyn1
	cDyn5
	nPhase1
)

// phase1Tasks builds the five independent runs of one benchmark's row:
// fully synchronous, baseline MCD, Attack/Decay, and both off-line
// schedules (each a compound BuildOffline + replay). Every cell
// resolves through the controller registry, so its content address (and
// its Result's Config label) is the registry's. The off-line searches
// share store, so both profile one all-max baseline and a refined
// schedule they both reach simulates once.
func (o Options) phase1Tasks(b workload.Benchmark, store *resultcache.Cache) []runner.Task[stats.Result] {
	run := o.controlRun(b)
	run.Store = store
	iters := control.Params{"iters": float64(o.OfflineIters)}
	return []runner.Task[stats.Result]{
		cSync: o.resolvedTask(b.Name, b.Name+"/sync", "sync", nil, run),
		cBase: o.resolvedTask(b.Name, b.Name+"/mcd-base", "mcd", nil, run),
		cAD:   o.resolvedTask(b.Name, b.Name+"/attack-decay", "attack-decay", nil, run),
		cDyn1: o.resolvedTask(b.Name, b.Name+"/dynamic-1%", "dynamic-1", iters, run),
		cDyn5: o.resolvedTask(b.Name, b.Name+"/dynamic-5%", "dynamic-5", iters, run),
	}
}

// globalTasks builds the three Global(·) searches of one row; they depend
// on the phase-1 results, so they form the batch's second phase. Each is
// the registered "global" controller with the measured baseline time and
// target degradation as parameters. The searches share store: they
// bisect the same frequency scale, so they visit many of the same
// probes.
func (o Options) globalTasks(c *Comparison, store *resultcache.Cache) []runner.Task[stats.Result] {
	run := o.controlRun(c.Bench)
	run.Store = store
	mk := func(label string, deg float64) runner.Task[stats.Result] {
		return o.resolvedTask(c.Bench.Name, c.Bench.Name+"/"+label, "global",
			control.Params{"deg": deg, "base_ps": c.Sync.TimePS}, run)
	}
	return []runner.Task[stats.Result]{
		mk("global-ad", c.AD.TimePS/c.MCDBase.TimePS-1),
		mk("global-d1", c.Dyn1.TimePS/c.MCDBase.TimePS-1),
		mk("global-d5", c.Dyn5.TimePS/c.MCDBase.TimePS-1),
	}
}

// RunAll runs the comparison matrix over the selected benchmarks.
func (o Options) RunAll() []Comparison {
	return o.runAllOn(o.catalog())
}

// runAllOn flattens the whole benchmark grid into two batches — the
// independent runs of every row first, then every row's Global(·)
// searches — so a single GOMAXPROCS-bounded pool sees maximal
// parallelism. Comparisons come back in catalog order regardless of the
// worker count. Each row's compound searches share one store per phase
// (see rowStores), so every distinct sub-run of a row's searches runs
// once.
func (o Options) runAllOn(cat []workload.Benchmark) []Comparison {
	var rows rowStores
	var p1 []runner.Task[stats.Result]
	for _, b := range cat {
		p1 = append(p1, rows.scope(func(store *resultcache.Cache) []runner.Task[stats.Result] {
			return o.phase1Tasks(b, store)
		})...)
	}
	r1 := o.mapTasks(p1)

	cs := make([]Comparison, len(cat))
	for i, b := range cat {
		row := r1[i*nPhase1 : (i+1)*nPhase1]
		cs[i] = Comparison{
			Bench:   b,
			Sync:    row[cSync],
			MCDBase: row[cBase],
			AD:      row[cAD],
			Dyn1:    row[cDyn1],
			Dyn5:    row[cDyn5],
		}
	}

	var p2 []runner.Task[stats.Result]
	for i := range cs {
		p2 = append(p2, rows.scope(func(store *resultcache.Cache) []runner.Task[stats.Result] {
			return o.globalTasks(&cs[i], store)
		})...)
	}
	r2 := o.mapTasks(p2)
	for i := range cs {
		cs[i].GlobalAD = r2[i*3+0]
		cs[i].GlobalD1 = r2[i*3+1]
		cs[i].GlobalD5 = r2[i*3+2]
	}
	if req := rows.misses + rows.hits; req > 0 {
		o.logf("compound searches simulated %d of %d requested sub-runs\n", rows.misses, req)
	}
	return cs
}

// rowStores hands each grid row a memory-only result store for one
// phase and sums the stores' counters as the rows finish.
type rowStores struct {
	mu           sync.Mutex
	misses, hits uint64
}

// scope builds one row's tasks over a fresh store and wraps them so the
// store lives only as long as the row: each wrapper lets go of its task
// when it starts, and the row's last finisher adds the store's counters
// to the tally and drops it. A grid-wide store would hold every result
// to the end of the phase.
func (s *rowStores) scope(build func(*resultcache.Cache) []runner.Task[stats.Result]) []runner.Task[stats.Result] {
	store, _ := resultcache.New(resultcache.Options{}) // memory-only: cannot fail
	tasks := build(store)
	left := len(tasks)
	finish := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if left--; left == 0 {
			st := store.Stats()
			s.misses += st.Misses
			s.hits += st.Hits()
			store = nil
		}
	}
	out := make([]runner.Task[stats.Result], len(tasks))
	for i, t := range tasks {
		run := t.Run
		out[i] = runner.Task[stats.Result]{Name: t.Name, Run: func(ctx context.Context) (stats.Result, error) {
			defer finish()
			f := run
			run = nil
			return f(ctx)
		}}
	}
	return out
}

// summarize reduces one configuration across benchmarks against a chosen
// baseline extractor.
func summarize(cs []Comparison, pick func(Comparison) stats.Result, base func(Comparison) stats.Result) stats.Summary {
	var comps []stats.Comparison
	for _, c := range cs {
		comps = append(comps, stats.Compare(pick(c), base(c)))
	}
	return stats.Summarize(comps)
}

// Table6 computes the paper's Table 6: each algorithm versus the baseline
// MCD processor, plus the Global(·) rows versus the fully synchronous
// processor at 1 GHz.
func Table6(cs []Comparison) string {
	type row struct {
		name string
		s    stats.Summary
	}
	rows := []row{
		{"Attack/Decay", summarize(cs, func(c Comparison) stats.Result { return c.AD }, func(c Comparison) stats.Result { return c.MCDBase })},
		{"Dynamic-1%", summarize(cs, func(c Comparison) stats.Result { return c.Dyn1 }, func(c Comparison) stats.Result { return c.MCDBase })},
		{"Dynamic-5%", summarize(cs, func(c Comparison) stats.Result { return c.Dyn5 }, func(c Comparison) stats.Result { return c.MCDBase })},
		{"Global (Attack/Decay)", summarize(cs, func(c Comparison) stats.Result { return c.GlobalAD }, func(c Comparison) stats.Result { return c.Sync })},
		{"Global (Dynamic-1%)", summarize(cs, func(c Comparison) stats.Result { return c.GlobalD1 }, func(c Comparison) stats.Result { return c.Sync })},
		{"Global (Dynamic-5%)", summarize(cs, func(c Comparison) stats.Result { return c.GlobalD5 }, func(c Comparison) stats.Result { return c.Sync })},
	}
	s := "Table 6: algorithm comparison (averages over " + fmt.Sprint(len(cs)) + " benchmarks)\n"
	s += fmt.Sprintf("%-24s %12s %10s %12s %12s\n", "Algorithm", "Perf Deg", "Energy Sav", "EDP Improv", "Power/Perf")
	for _, r := range rows {
		s += fmt.Sprintf("%-24s %11.1f%% %9.1f%% %11.1f%% %12.1f\n",
			r.name, r.s.PerfDegradation*100, r.s.EnergySavings*100, r.s.EDPImprovement*100, r.s.PowerPerfRatio)
	}
	return s
}

// Headline computes the paper's abstract numbers: Attack/Decay vs the
// baseline MCD processor and vs the conventional fully synchronous
// processor. EPI and CPI print as signed changes, EDP as a signed gain.
func Headline(cs []Comparison) string {
	vsMCD := summarize(cs, func(c Comparison) stats.Result { return c.AD }, func(c Comparison) stats.Result { return c.MCDBase })
	vsSync := summarize(cs, func(c Comparison) stats.Result { return c.AD }, func(c Comparison) stats.Result { return c.Sync })
	d1 := summarize(cs, func(c Comparison) stats.Result { return c.Dyn1 }, func(c Comparison) stats.Result { return c.MCDBase })
	mcdBase := summarize(cs, func(c Comparison) stats.Result { return c.MCDBase }, func(c Comparison) stats.Result { return c.Sync })

	s := "Headline results (paper values in parentheses)\n"
	s += fmt.Sprintf("  vs baseline MCD:       EPI %+.1f%% (19.0%%), CPI %+.1f%% (3.2%%), EDP %+.1f%% (16.7%%), ratio %.1f (4.6)\n",
		-vsMCD.EnergySavings*100, vsMCD.PerfDegradation*100, vsMCD.EDPImprovement*100, vsMCD.PowerPerfRatio)
	s += fmt.Sprintf("  vs fully synchronous:  EPI %+.1f%% (17.5%%), CPI %+.1f%% (4.5%%), EDP %+.1f%% (13.8%%)\n",
		-vsSync.EnergySavings*100, vsSync.PerfDegradation*100, vsSync.EDPImprovement*100)
	if d1.EDPImprovement != 0 {
		s += fmt.Sprintf("  A/D EDP vs Dynamic-1%% EDP: %.1f%% (85.5%%)\n", vsMCD.EDPImprovement/d1.EDPImprovement*100)
	}
	s += fmt.Sprintf("  inherent MCD degradation: %.1f%% (paper <2%%), MCD energy overhead: %.1f%% (2.9%%)\n",
		mcdBase.PerfDegradation*100, -mcdBase.EnergySavings*100)
	return s
}

// Fig4 prints the three per-application series of Figure 4 (performance
// degradation, energy savings, EDP improvement), all relative to the
// fully synchronous processor, for the four configurations the paper
// plots.
func Fig4(cs []Comparison) string {
	s := "Figure 4: per-application results vs fully synchronous processor\n"
	header := fmt.Sprintf("%-12s %38s\n%-12s %9s %9s %9s %9s\n",
		"", "Baseline-MCD  Dyn-1%  Dyn-5%  A/D", "benchmark", "base", "dyn1", "dyn5", "ad")
	metric := func(title string, f func(r, b stats.Result) float64) string {
		out := "\n(" + title + ")\n" + header
		var sums [4]float64
		for _, c := range cs {
			v := [4]float64{
				f(c.MCDBase, c.Sync), f(c.Dyn1, c.Sync), f(c.Dyn5, c.Sync), f(c.AD, c.Sync),
			}
			for i := range sums {
				sums[i] += v[i]
			}
			out += fmt.Sprintf("%-12s %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
				c.Bench.Name, v[0]*100, v[1]*100, v[2]*100, v[3]*100)
		}
		n := float64(len(cs))
		out += fmt.Sprintf("%-12s %8.1f%% %8.1f%% %8.1f%% %8.1f%%\n",
			"average", sums[0]/n*100, sums[1]/n*100, sums[2]/n*100, sums[3]/n*100)
		return out
	}
	s += metric("a: performance degradation", func(r, b stats.Result) float64 {
		return r.TimePS/b.TimePS - 1
	})
	s += metric("b: energy savings", func(r, b stats.Result) float64 {
		return 1 - r.EnergyPJ/b.EnergyPJ
	})
	s += metric("c: energy-delay product improvement", func(r, b stats.Result) float64 {
		return 1 - r.EDP()/b.EDP()
	})
	return s
}
