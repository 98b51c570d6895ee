// Package mcd is a library-quality reproduction of "Dynamic Frequency and
// Voltage Control for a Multiple Clock Domain Microarchitecture"
// (Semeraro et al., MICRO 2002): a cycle-level simulator of a
// four-clock-domain out-of-order processor with per-domain dynamic
// voltage/frequency scaling, a Wattch-style energy model, the paper's
// Attack/Decay on-line control algorithm, and the off-line and global
// scaling comparators used in its evaluation.
//
// # Quick start
//
//	bench, _ := mcd.LookupBenchmark("epic.decode")
//	res := mcd.Run(mcd.Spec{
//		Config:     mcd.DefaultConfig(),
//		Profile:    bench.Profile,
//		Window:     500_000,
//		Warmup:     250_000,
//		Controller: mcd.NewAttackDecay(mcd.DefaultParams()),
//	})
//	fmt.Printf("CPI %.3f  EPI %.1f pJ\n", res.CPI(), res.EPI())
//
// The experiment harness that regenerates every table and figure of the
// paper lives in cmd/mcdbench and cmd/mcdtrace; DESIGN.md's
// entry-point map names the way in to each experiment and exported name.
package mcd

import (
	"context"
	"fmt"

	"mcd/internal/clock"
	"mcd/internal/control"
	"mcd/internal/core"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/runner"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// Domain identifies one of the independently clocked processor regions.
type Domain = clock.Domain

// The four controllable clock domains plus external memory.
const (
	FrontEnd      = clock.FrontEnd
	Integer       = clock.Integer
	FloatingPoint = clock.FloatingPoint
	LoadStore     = clock.LoadStore
	Memory        = clock.Memory

	// NumControllable counts the domains a controller may retarget.
	NumControllable = clock.NumControllable
)

// Config holds the architectural (Table 4) and MCD-specific (Table 1)
// parameters of the simulated processor.
type Config = pipeline.Config

// DefaultConfig returns the paper's processor configuration.
func DefaultConfig() Config { return pipeline.DefaultConfig() }

// Controller adjusts domain frequencies once per sampling interval.
// Implement it to plug a custom control algorithm into the simulator; see
// examples/customcontroller.
type Controller = pipeline.Controller

// IntervalView is the per-interval information a Controller observes: the
// per-domain queue-utilization counters and the global IPC counter —
// exactly the hardware the paper provisions (Section 3.2).
type IntervalView = pipeline.IntervalView

// Result carries the measurements of one simulation run.
type Result = stats.Result

// Interval is one recorded control interval (used by the Figure 2/3
// traces).
type Interval = stats.Interval

// Comparison and Summary are the paper's evaluation metrics.
type (
	Comparison = stats.Comparison
	Summary    = stats.Summary
)

// Compare measures a run against a baseline run of the same workload.
func Compare(r, base Result) Comparison { return stats.Compare(r, base) }

// Summarize averages comparisons across a benchmark suite.
func Summarize(cs []Comparison) Summary { return stats.Summarize(cs) }

// Spec describes one simulation run.
type Spec = sim.Spec

// Run executes a simulation: a session opened, drained and closed, so
// one-shot and stepped execution are byte-identical by construction.
func Run(s Spec) Result { return sim.Run(s) }

// Session is a resumable simulation: the run loop inverted into
// caller-driven stepping, so a long run can be observed (Observe),
// inspected (Snapshot), stopped early (StopWhen) and finalized at any
// interval boundary (Close) while it executes.
type Session = sim.Session

// Snapshot is the incrementally finalized view of an in-progress run:
// measured instructions, time, energy, current regulator targets and
// the last interval's IPC, with CPI/EPI/PowerW derived the same way
// Result derives them.
type Snapshot = stats.Progress

// Open starts a session over the spec. The simulation is initialized
// but no cycle executes until Session.Step; mcd.Run is exactly
// Open + drain + Close.
func Open(s Spec) (*Session, error) { return sim.Open(s) }

// Converged returns a Session.StopWhen predicate that fires once metric
// has moved by at most eps (relatively) across k consecutive measured
// intervals — e.g. Converged(Snapshot.EPI, 0.001, 20) stops a run whose
// energy per instruction has settled.
func Converged(metric func(Snapshot) float64, eps float64, k int) func(Snapshot) bool {
	return sim.Converged(metric, eps, k)
}

// RunRequest names one run of a batch. Exactly one of Spec and Do must be
// set: Spec describes a plain simulation run; Do wraps any other run as
// a closure (for example ControllerSpec for a compound controller such
// as "dynamic" or "global", followed by Run).
type RunRequest struct {
	Name string
	Spec *Spec
	Do   func(ctx context.Context) (Result, error)
}

// PanicError reports a batch run that panicked: the pool recovers the
// panic so one bad run cannot kill its worker, and preserves the run's
// name, the panic value and the original stack. Detect it with
// errors.As.
type PanicError = runner.PanicError

// BatchResult is one RunBatch outcome, in the position its request was
// submitted.
type BatchResult struct {
	Name   string
	Result Result
	// Err is the run's error; a run that panicked reports a *PanicError,
	// and a run cancelled before it started reports the context error.
	Err error
}

// ResultCache is the content-addressed deterministic result store:
// because every run is a pure function of its Spec, a spec's SHA-256
// content address (SpecKey) names a result byte-identical to a
// recompute. The store is two-tier (byte-bounded in-memory LRU over an
// optional on-disk directory with atomic writes) and single-flights
// concurrent identical computations. A nil *ResultCache is valid
// everywhere and means "no caching". cmd/mcdserve serves the same store
// over HTTP.
type ResultCache = resultcache.Cache

// CacheOptions configures NewResultCache.
type CacheOptions = resultcache.Options

// CacheStats are the store's observability counters.
type CacheStats = resultcache.Stats

// NewResultCache builds a result store, creating the disk directory
// when CacheOptions.Dir is set.
func NewResultCache(o CacheOptions) (*ResultCache, error) { return resultcache.New(o) }

// SpecKey returns the content address of a run: the SHA-256 of a
// canonical, versioned encoding of every field of the spec. Specs whose
// Controller cannot describe itself canonically (any controller other
// than nil, NewAttackDecay's, an off-line schedule, or the registry's pi
// and coord) are uncacheable and return an error; custom controllers opt
// in by implementing CacheKey() string (see internal/resultcache.Keyer
// and DESIGN.md, "Serving layer").
func SpecKey(s Spec) (string, error) { return resultcache.SpecKey(s) }

// BatchOptions configures RunBatch.
type BatchOptions struct {
	// Workers bounds concurrently executing runs; zero or negative means
	// GOMAXPROCS.
	Workers int
	// Progress, if non-nil, is called (serialized) as each run finishes.
	Progress func(done, total int, name string)
	// Cache, if non-nil, is consulted before each Spec-based run: a
	// request whose SpecKey is already stored returns the cached result
	// (byte-identical to a recompute) without simulating, and concurrent
	// identical requests collapse onto one simulation. Do-based requests
	// and uncacheable specs run normally.
	Cache *ResultCache
}

// RunBatch fans independent runs out across a bounded worker pool and
// returns their results in submission order, so output derived from the
// batch is byte-identical to executing the requests serially. Runs must
// not share mutable state (each request needs its own Controller
// instance); see DESIGN.md, "Runner determinism". A panicking run is
// reported in its BatchResult — it does not kill the pool. When ctx is
// cancelled, unstarted runs report ctx.Err() and RunBatch returns it.
func RunBatch(ctx context.Context, reqs []RunRequest, opts BatchOptions) ([]BatchResult, error) {
	tasks := make([]runner.Task[Result], len(reqs))
	for i, r := range reqs {
		if (r.Spec == nil) == (r.Do == nil) {
			return nil, fmt.Errorf("mcd: request %d (%q) must set exactly one of Spec and Do", i, r.Name)
		}
		tasks[i] = runner.Task[Result]{Name: r.Name, Run: r.Do}
		if spec := r.Spec; spec != nil {
			tasks[i].Run = func(context.Context) (Result, error) {
				key, _ := resultcache.SpecKey(*spec) // "": uncacheable, runs directly
				res, _, err := opts.Cache.DoResult(key, func() (Result, error) { return sim.Run(*spec), nil })
				return res, err
			}
		}
	}
	outs, err := runner.Map(ctx, tasks, runner.Options{Workers: opts.Workers, OnDone: opts.Progress})
	res := make([]BatchResult, len(outs))
	for i, o := range outs {
		res[i] = BatchResult{Name: o.Name, Result: o.Value, Err: o.Err}
	}
	return res, err
}

// Controller registry types: every control algorithm is a named,
// parameterized factory in a process-wide registry (internal/control).
// The registered set is what cmd/mcdsim's -config flag, cmd/mcdbench's
// -controller flag, the wire "controller" field and GET /v1/controllers
// all accept — registering a controller makes it runnable everywhere at
// once (see examples/customcontroller).
type (
	// ControllerDef is one registry entry: name, doc, parameter schema
	// and factory.
	ControllerDef = control.Definition
	// ControllerParams maps parameter names to numeric values.
	ControllerParams = control.Params
	// ControllerField describes one numeric parameter of a schema.
	ControllerField = control.Field
	// ControllerSchema is an ordered parameter list.
	ControllerSchema = control.Schema
	// ControllerRun is the controller-independent description of a run a
	// registered definition turns into a Spec.
	ControllerRun = control.Run
	// ControllerInfo is one entry of the registry's self-description.
	ControllerInfo = control.Info
)

// RegisterController adds a controller definition to the registry; it
// panics on duplicate or malformed definitions (call it at init time).
func RegisterController(d ControllerDef) { control.Register(d) }

// Controllers returns the registry's self-description, sorted by name.
func Controllers() []ControllerInfo { return control.Describe() }

// ControllerNames returns every registered controller name, sorted.
func ControllerNames() []string { return control.Names() }

// ControllerSpec resolves a registered controller by name (parameters
// overlaid on its schema defaults) and builds the Spec that runs it,
// performing any compound preparation the definition needs (for the
// off-line "dynamic" controllers, the schedule search).
func ControllerSpec(name string, p ControllerParams, run ControllerRun) (Spec, error) {
	res, err := control.Resolve(name, p)
	if err != nil {
		return Spec{}, err
	}
	return res.Spec(run)
}

// Params are the Attack/Decay configuration parameters (Table 2).
type Params = core.Params

// DefaultParams returns the paper's headline configuration
// (1.750_06.0_0.175_2.5).
func DefaultParams() Params { return core.DefaultParams() }

// NewAttackDecay returns the paper's on-line controller (Listing 1).
func NewAttackDecay(p Params) Controller { return core.NewAttackDecay(p) }

// Workload modeling types: each benchmark of Table 5 is a deterministic
// statistical trace generator (see DESIGN.md for the substitution).
type (
	Benchmark = workload.Benchmark
	Profile   = workload.Profile
	Phase     = workload.Phase
	Mix       = workload.Mix
	Class     = workload.Class
	Generator = workload.Generator
	Instr     = workload.Instr
)

// Catalog returns the 30 benchmarks of Table 5.
func Catalog() []Benchmark { return workload.Catalog() }

// LookupBenchmark finds a benchmark by name ("epic.decode" selects the
// decode-only profile used by Figures 2 and 3).
func LookupBenchmark(name string) (Benchmark, bool) { return workload.Lookup(name) }
