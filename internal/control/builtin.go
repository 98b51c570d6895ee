package control

import (
	"fmt"

	"mcd/internal/core"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
)

// The built-in registrations: the paper's evaluation matrix (the five
// names cmd/mcdsim has always accepted) expressed as registry entries.
// "dynamic-1" and "dynamic-5" are aliases of the parameterized
// "dynamic" definition, so legacy requests stay byte-compatible while
// the target becomes an ordinary sweepable parameter.
func init() {
	Register(Definition{
		Name: "sync",
		Doc:  "conventional fully synchronous processor (single clock, no MCD overheads)",
		Schema: Schema{
			{Name: "freq_mhz", Default: 0, Min: 250, Max: 1000,
				Doc: "global clock frequency (0: the configuration's maximum)"},
		},
		Build: func(r Run, p Params) (sim.Spec, error) {
			f := p["freq_mhz"]
			if f == 0 {
				// Follow the configured chip maximum, as the bench
				// harness's sync column always has.
				f = r.Config.MaxFreqMHz
			}
			return r.syncSpec(f), nil
		},
	})

	Register(Definition{
		Name: "mcd",
		Doc:  "baseline MCD processor, every domain fixed at maximum frequency",
		New: func(Params) (pipeline.Controller, error) {
			return nil, nil // fixed-frequency run: no controller
		},
	})

	Register(Definition{
		Name:   "attack-decay",
		Doc:    "the paper's on-line Attack/Decay controller (Listing 1)",
		Schema: attackDecaySchema(),
		New: func(p Params) (pipeline.Controller, error) {
			return core.NewAttackDecay(attackDecayParams(p)), nil
		},
	})

	Register(Definition{
		Name:             "dynamic",
		Doc:              "off-line Dynamic-X% comparator: global-knowledge slack schedule targeting a degradation cap",
		SearchItersParam: "iters",
		Schema: Schema{
			{Name: "target", Default: 0.05, Min: 0.01, Max: 0.12,
				Doc: "performance-degradation cap vs the baseline MCD processor"},
			{Name: "iters", Default: 6, Min: 1, Max: 10,
				Doc: "schedule-search refinement iterations"},
			{Name: "adapt", Default: 0, Min: 0, Max: 1,
				Doc: "1: bisect the down-step toward the cap when a pass's schedule overshoots (for compressed quick scales); 0: classic fixed-step search"},
		},
		Build: func(r Run, p Params) (sim.Spec, error) {
			ctrl, _ := core.BuildOffline(r.Config, r.Profile, r.Window, offlineOpts(r, p), r.Simulate)
			spec := r.spec()
			spec.Controller = ctrl
			spec.InitialFreqMHz = ctrl.Initial()
			return spec, nil
		},
		// The schedule search is the expensive part; the content address
		// must not pay it, so the key is the controller-less spec plus
		// the search parameters (exactly what determines the outcome).
		KeySpec: func(r Run, p Params) (sim.Spec, string, error) {
			return r.spec(), offlineOpts(r, p).CacheExtra(), nil
		},
	})
	Alias("dynamic-1", "dynamic", Params{"target": 0.01})
	Alias("dynamic-5", "dynamic", Params{"target": 0.05})

	Register(Definition{
		Name: "global",
		Doc:  "conventional global voltage/frequency scaling matched to a target slowdown (the Global(·) rows of Table 6)",
		Schema: Schema{
			{Name: "deg", Default: 0.02, Min: 0, Max: 0.12,
				Doc: "target performance degradation vs the synchronous baseline at maximum frequency"},
			{Name: "base_ps", Default: 0, Min: 0, Max: 1e12,
				Doc: "baseline synchronous run time in ps (0: measure it first)"},
		},
		Build: func(r Run, p Params) (sim.Spec, error) {
			base := p["base_ps"]
			if base == 0 {
				base = r.Simulate(r.syncSpec(r.Config.MaxFreqMHz)).TimePS
			}
			// GlobalMatch's result is itself a synchronous run at the
			// matched frequency, so re-running the returned spec is
			// byte-identical by purity (the contract the registry tests
			// pin). Build can only hand back a spec, so a cold cell pays
			// one window-length run beyond the bisection's probes — the
			// price of making Global(·) a content-addressed registry
			// citizen; warm caches never pay it. The probes go through
			// r.Simulate, so searches sharing a Store share them.
			freq, _ := core.GlobalMatch(base, p["deg"], func(f float64) stats.Result { return r.Simulate(r.syncSpec(f)) })
			return r.syncSpec(freq), nil
		},
		// The bisection is the expensive part; the content address is the
		// max-frequency synchronous spec plus the search parameters —
		// the exact extra format the bench harness has always used for
		// its Global(·) compound cells. The fidelity line rides on the
		// spec, so sampled Global(·) cells key apart from exact ones.
		KeySpec: func(r Run, p Params) (sim.Spec, string, error) {
			return r.syncSpec(r.Config.MaxFreqMHz),
				fmt.Sprintf("global|base=%s|deg=%s", resultcache.Float(p["base_ps"]), resultcache.Float(p["deg"])), nil
		},
	})
}

func offlineOpts(r Run, p Params) core.OfflineOptions {
	return core.OfflineOptions{
		TargetDeg:      p["target"],
		Iterations:     int(p["iters"]),
		AdaptiveStep:   p["adapt"] != 0,
		Warmup:         r.Warmup,
		IntervalLength: r.IntervalLength,
		Fidelity:       r.Fidelity,
		SampleEvery:    r.SampleEvery,
	}
}

// attackDecaySchema mirrors core.Params (Table 2) field for field; the
// defaults are the paper's headline configuration. refdecay and
// smoothing default to the effective values core applies when its
// struct fields are zero, so the registry's defaults and the public
// core.DefaultParams() construction behave identically.
func attackDecaySchema() Schema {
	d := core.DefaultParams()
	return Schema{
		{Name: "deviation", Default: d.DeviationThreshold, Min: 0, Max: 0.025,
			Doc: "relative queue-utilization change that triggers an attack"},
		{Name: "reaction", Default: d.ReactionChange, Min: 0.005, Max: 0.155,
			Doc: "period scale factor applied in attack mode"},
		{Name: "decay", Default: d.Decay, Min: 0, Max: 0.02,
			Doc: "period scale factor applied every quiet interval"},
		{Name: "perfdeg", Default: d.PerfDegThreshold, Min: 0, Max: 0.12,
			Doc: "performance degradation target"},
		{Name: "refdecay", Default: 0.01, Min: 0.001, Max: 0.1,
			Doc: "per-interval decay of the reference IPC"},
		{Name: "smoothing", Default: 0.25, Min: 0.05, Max: 1,
			Doc: "EMA coefficient applied to the interval IPC"},
		{Name: "endstop", Default: float64(d.EndstopCount), Min: 1, Max: 25,
			Doc: "consecutive end-stop intervals before a forced probe"},
		{Name: "fe_mhz", Default: d.FrontEndMHz, Min: 250, Max: 1000,
			Doc: "pinned front-end frequency"},
		{Name: "min_mhz", Default: d.MinMHz, Min: 250, Max: 1000,
			Doc: "lower frequency bound"},
		{Name: "max_mhz", Default: d.MaxMHz, Min: 250, Max: 1000,
			Doc: "upper frequency bound"},
	}
}

func attackDecayParams(p Params) core.Params {
	return core.Params{
		DeviationThreshold: p["deviation"],
		ReactionChange:     p["reaction"],
		Decay:              p["decay"],
		PerfDegThreshold:   p["perfdeg"],
		RefIPCDecay:        p["refdecay"],
		IPCSmoothing:       p["smoothing"],
		EndstopCount:       int(p["endstop"]),
		FrontEndMHz:        p["fe_mhz"],
		MinMHz:             p["min_mhz"],
		MaxMHz:             p["max_mhz"],
	}
}
