package core

import (
	"crypto/sha256"
	"fmt"

	"mcd/internal/clock"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// Schedule is a per-interval table of domain frequency targets (MHz).
type Schedule [][clock.NumControllable]float64

// OfflineController replays a precomputed schedule, standing in for the
// Dynamic-1%/Dynamic-5% off-line algorithm of the paper (ref [22]): the
// schedule is built with full knowledge of the application's future, and —
// like the paper's off-line algorithm — frequency changes are requested
// one interval ahead of where they are needed, so regulator slew is not a
// source of error.
type OfflineController struct {
	name  string
	sched Schedule
	idx   int
}

var _ pipeline.Controller = (*OfflineController)(nil)

// NewOfflineController wraps a schedule. Interval i's targets are issued
// at the end of interval i-1 (one interval of lead).
func NewOfflineController(name string, sched Schedule) *OfflineController {
	return &OfflineController{name: name, sched: sched}
}

// Name implements pipeline.Controller.
func (o *OfflineController) Name() string { return o.name }

// CacheKey implements resultcache.Keyer: the name plus a SHA-256 over
// the exact (hex-encoded) schedule, so a replay run can be cached like
// any fixed-policy run.
func (o *OfflineController) CacheKey() string {
	h := sha256.New()
	fmt.Fprintf(h, "%q\n", o.name)
	for _, iv := range o.sched {
		for d, f := range iv {
			if d > 0 {
				h.Write([]byte{','})
			}
			h.Write([]byte(resultcache.Float(f)))
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("offline-replay|%s|%x", o.name, h.Sum(nil))
}

// Initial returns the frequencies for interval 0, to be applied before the
// run starts.
func (o *OfflineController) Initial() [clock.NumControllable]float64 {
	if len(o.sched) == 0 {
		return [clock.NumControllable]float64{}
	}
	return o.sched[0]
}

// Observe implements pipeline.Controller: at the end of measured interval
// i it issues the schedule entry for interval i+1. Warmup intervals are
// ignored so the schedule stays aligned with the measured intervals it was
// profiled against; the warmup region runs at the Initial() frequencies.
func (o *OfflineController) Observe(iv pipeline.IntervalView) [clock.NumControllable]float64 {
	if iv.Warmup {
		return [clock.NumControllable]float64{}
	}
	o.idx++
	i := o.idx
	if i >= len(o.sched) {
		i = len(o.sched) - 1
	}
	if i < 0 {
		return [clock.NumControllable]float64{}
	}
	return o.sched[i]
}

// OfflineOptions tunes the schedule search.
type OfflineOptions struct {
	// TargetDeg is the performance-degradation cap relative to the
	// baseline MCD processor (0.01 for Dynamic-1%, 0.05 for Dynamic-5%).
	TargetDeg float64
	// Iterations bounds the refinement passes (default 6).
	Iterations int
	// AdaptiveStep softens the down-step instead of committing an
	// overshooting schedule: whenever a pass's schedule lands beyond the
	// dilation cap, the step is bisected toward 1 ((1+step)/2) and the
	// pass retried from the last good schedule. At compressed quick
	// scales a window holds so few intervals that one fixed 10%
	// down-step can jump straight past a tight cap; bisection finds the
	// step size the scale actually affords. Off by default: the classic
	// fixed-step search (and its content addresses) stays byte-identical.
	AdaptiveStep bool
	// Warmup instructions run before each profiled window.
	Warmup uint64
	// IntervalLength is the sampling period used during profiling and
	// replay; it must match the final run's interval length for the
	// schedule indices to line up. Zero uses the pipeline default.
	IntervalLength uint64
	// Fidelity and SampleEvery select the simulation tier for the
	// profiling and refinement runs (sim.FidelityExact /
	// sim.FidelitySampled), so a sampled request pays sampled prices for
	// the schedule search too. They are part of the run spec, not the
	// search parameters, so CacheExtra never encodes them — the outer
	// spec key line does.
	Fidelity    string
	SampleEvery int
}

// The multiplicative frequency adjustments of one refinement pass.
const (
	stepDown = 0.90
	stepUp   = 1.15
)

// withDefaults resolves the zero-valued search parameters to the
// defaults BuildOffline applies — the one place those defaults live.
func (o OfflineOptions) withDefaults() OfflineOptions {
	if o.Iterations == 0 {
		o.Iterations = 6
	}
	return o
}

// CacheExtra canonically encodes the resolved search parameters that
// determine a BuildOffline outcome beyond its profiling spec (which
// already carries config, profile, window, warmup and interval) — the
// extra material for resultcache.SpecKeyExtra. Keeping it next to
// withDefaults means a changed default changes every derived content
// address, so stale store entries can never be served. The step
// factors and the one schedule per pass ("cands=1") are fixed, but
// stay in the string so every existing address is unchanged.
func (o OfflineOptions) CacheExtra() string {
	r := o.withDefaults()
	h := resultcache.Float
	extra := fmt.Sprintf("offline|target=%s|iters=%d|down=%s|up=%s|cands=1",
		h(r.TargetDeg), r.Iterations, h(stepDown), h(stepUp))
	// The adaptive marker is appended only when the knob is on, so every
	// legacy address (computed before the knob existed) is unchanged.
	if r.AdaptiveStep {
		extra += "|adapt=1"
	}
	return extra
}

// refine returns a copy of sched with one pass of the slack rule applied:
// speed up intervals whose queues backed up versus the full-speed
// profile, slow down everything else while the dilation budget has slack.
func refine(sched Schedule, cur, base stats.Result, deg, target float64, cfg pipeline.Config, down float64) Schedule {
	controlled := []clock.Domain{clock.Integer, clock.FloatingPoint, clock.LoadStore}
	out := make(Schedule, len(sched))
	copy(out, sched)
	for i := 0; i < len(out) && i < len(cur.Intervals); i++ {
		for _, d := range controlled {
			occ := cur.Intervals[i].QueueAvg[d]
			ref := base.Intervals[i].QueueAvg[d]
			// A queue holding substantially more than it did at full
			// speed means the domain is now too slow for this phase.
			backedUp := occ > ref*1.6+1.0
			switch {
			case backedUp:
				out[i][d] *= stepUp
			case deg < target*0.9:
				out[i][d] *= down
			}
			if out[i][d] > cfg.MaxFreqMHz {
				out[i][d] = cfg.MaxFreqMHz
			}
			if out[i][d] < 250 {
				out[i][d] = 250
			}
		}
	}
	return out
}

// BuildOffline profiles the workload at maximum frequencies, then
// iteratively lowers per-interval domain frequencies where the decoupling
// queues show slack, re-simulating until the end-to-end dilation meets the
// target. It returns the controller and the baseline (all-max MCD) result
// used as its reference.
//
// Every simulation goes through run, on the caller's goroutine, so a
// caller can share runs between searches: two targets over one workload
// profile the same all-max baseline, and refined schedules can repeat.
// run must return sim.Run's result for the spec.
//
// Each refinement pass builds one schedule from the last committed one
// and simulates it. A schedule beyond the dilation cap is committed
// anyway, unless opts.AdaptiveStep bisects the down-step and retries
// the pass from the last committed schedule.
//
// This reproduces the *global knowledge* property of the paper's off-line
// shaker — it sees every interval of the whole run before choosing any
// frequency, pays no reactive lag, and can therefore cap the dilation
// tightly — without reimplementing the shaker's dependence-graph passes.
func BuildOffline(cfg pipeline.Config, prof workload.Profile, window uint64, opts OfflineOptions, run func(sim.Spec) stats.Result) (*OfflineController, stats.Result) {
	opts = opts.withDefaults()
	name := fmt.Sprintf("dynamic-%.0f%%", opts.TargetDeg*100)

	base := run(sim.Spec{
		Config: cfg, Profile: prof, Window: window, Warmup: opts.Warmup,
		IntervalLength:  opts.IntervalLength,
		RecordIntervals: true, Name: "mcd-baseline",
		Fidelity: opts.Fidelity, SampleEvery: opts.SampleEvery,
	})
	nIv := len(base.Intervals)
	sched := make(Schedule, max(nIv, 1))
	for i := range sched {
		for d := 0; d < clock.NumControllable; d++ {
			sched[i][d] = cfg.MaxFreqMHz
		}
	}
	if nIv == 0 {
		return NewOfflineController(name, sched), base
	}

	cur := base
	down := stepDown
	for it := 0; it < opts.Iterations; it++ {
		next := refine(sched, cur, base, cur.TimePS/base.TimePS-1, opts.TargetDeg, cfg, down)
		ctrl := NewOfflineController(name, next)
		res := run(sim.Spec{
			Config: cfg, Profile: prof, Window: window, Warmup: opts.Warmup,
			IntervalLength: opts.IntervalLength,
			Controller:     ctrl, InitialFreqMHz: ctrl.Initial(),
			RecordIntervals: true, Name: name,
			Fidelity: opts.Fidelity, SampleEvery: opts.SampleEvery,
		})
		deg := res.TimePS/base.TimePS - 1
		if deg > opts.TargetDeg*1.1 && opts.AdaptiveStep {
			// Bisect the down-step toward a no-op and retry from the
			// last schedule that respected the cap, instead of
			// committing an overshooting one. The retry spends an
			// iteration, so the search still terminates.
			down = (1 + down) / 2
			continue
		}
		sched, cur = next, res
		if deg > opts.TargetDeg*0.9 && deg <= opts.TargetDeg*1.1 {
			break
		}
	}
	return NewOfflineController(name, sched), base
}
