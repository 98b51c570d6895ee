package bench

import (
	"context"
	"fmt"

	"mcd/internal/control"
	"mcd/internal/resultcache"
	"mcd/internal/runner"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// SweepPoint is one x-axis value of a sensitivity figure with the
// suite-averaged metrics at that parameter value (vs the baseline MCD
// processor, as in the paper's sensitivity analysis).
type SweepPoint struct {
	Value   float64
	Summary stats.Summary
}

// baselines runs the per-benchmark baseline MCD cells every sweep
// summarizes against, as one parallel batch in catalog order. The cells
// are registry-resolved, so they share their content addresses with the
// Table 6 grid and with service requests for the "mcd" controller.
func (o Options) baselines(cat []workload.Benchmark) []stats.Result {
	tasks := make([]runner.Task[stats.Result], len(cat))
	for i, b := range cat {
		tasks[i] = o.resolvedTask(b.Name, b.Name+"/mcd-base", "mcd", nil, o.controlRun(b))
	}
	return o.mapTasks(tasks)
}

// PaperSweep is one of the paper's sensitivity figures (Figures 5–7):
// the attack-decay schema parameter it sweeps, the published x-axis
// values, the other Table 2 parameters fixed at the figure's
// configuration (the rest take the schema defaults), and the title the
// figure prints under. It runs as SweepController("attack-decay",
// Param, Values, Fixed) and renders with FormatSweep.
type PaperSweep struct {
	Param  string
	Values []float64
	Fixed  control.Params
	Title  string
}

// PaperSweeps are the paper's sensitivity figures keyed by figure name,
// which is also the x-axis label FormatSweep prints and the suffix of
// the "sweep-" experiment that runs the figure (internal/wire).
var PaperSweeps = map[string]PaperSweep{
	"target": {"perfdeg",
		[]float64{0.01, 0.02, 0.04, 0.06, 0.08, 0.10, 0.12},
		control.Params{"deviation": 0.010, "reaction": 0.060, "decay": 0.0125},
		"Figure 5: performance degradation target (1.000_06.0_1.250_X.X)"},
	"decay": {"decay",
		[]float64{0.0005, 0.00175, 0.005, 0.0075, 0.0125, 0.0175, 0.02},
		control.Params{"deviation": 0.015, "reaction": 0.040, "perfdeg": 0.030},
		"Figures 6a/7a: Decay sensitivity (1.500_04.0_X.XXX_3.0)"},
	"reaction": {"reaction",
		[]float64{0.005, 0.02, 0.04, 0.06, 0.09, 0.12, 0.155},
		control.Params{"deviation": 0.015, "decay": 0.0075, "perfdeg": 0.030},
		"Figures 6b/7b: ReactionChange sensitivity (1.500_XX.X_0.750_3.0)"},
	"deviation": {"deviation",
		[]float64{0.0025, 0.005, 0.0075, 0.0125, 0.0175, 0.025},
		control.Params{"reaction": 0.060, "decay": 0.00175, "perfdeg": 0.025},
		"Figures 6c/7c: DeviationThreshold sensitivity (X.XXX_06.0_0.175_2.5)"},
}

// SweepController runs a sensitivity sweep over one numeric parameter
// of any registered controller: for each value, the named controller is
// resolved with {param: value} overlaid on fixed (then on its schema
// defaults) and run across the catalog, summarized against the
// per-benchmark baseline MCD runs — the registry-generic form of the
// Figure 5–7 sweeps, available to pi, coord, dynamic and anything
// registered later, and the one path the paper's own sweeps
// (PaperSweeps) take. A nil values slice samples the schema field's
// documented [Min, Max] range at sweepSamples evenly spaced points.
// Grid cells are cache-aware (see controlTask).
func (o Options) SweepController(name, param string, values []float64, fixed map[string]float64) ([]SweepPoint, error) {
	reg, ok := control.Lookup(name)
	if !ok {
		// Resolve owns the error wording (sorted valid set).
		_, err := control.Resolve(name, nil)
		return nil, err
	}
	field, ok := reg.Schema.Field(param)
	if !ok {
		// A resolve with only the unknown parameter reports the schema's
		// valid field set.
		_, err := control.Resolve(name, control.Params{param: 0})
		return nil, err
	}
	if len(values) == 0 {
		values = sampleRange(field.Min, field.Max, sweepSamples)
	}

	cat := o.catalog()
	bases := o.baselines(cat)

	var grid []runner.Task[stats.Result]
	for _, v := range values {
		p := control.Params{}
		// The harness's off-line iteration bound applies to definitions
		// that declare a search-iteration parameter, exactly as it does
		// to the Table 6 grid cells — quick-mode sweeps must not
		// silently pay full-depth searches. Explicit overrides win.
		if ip := reg.SearchItersParam; ip != "" && o.OfflineIters > 0 && param != ip {
			p[ip] = float64(o.OfflineIters)
		}
		for k, fv := range fixed {
			p[k] = fv
		}
		p[param] = v
		res, err := control.Resolve(name, p)
		if err != nil {
			return nil, err
		}
		for _, b := range cat {
			run := o.controlRun(b)
			label := fmt.Sprintf("%s/%s@%g", b.Name, name, v)
			grid = append(grid, o.controlTask(b.Name, label, name, p, res, run))
		}
	}
	runs := o.mapTasks(grid)

	points := make([]SweepPoint, len(values))
	for vi, v := range values {
		var comps []stats.Comparison
		for bi := range cat {
			comps = append(comps, stats.Compare(runs[vi*len(cat)+bi], bases[bi]))
		}
		points[vi] = SweepPoint{Value: v, Summary: stats.Summarize(comps)}
	}
	return points, nil
}

// controlTask wraps one registry-resolved run as a cache-aware grid
// task: addressed by the resolution's content key (which never pays for
// compound preparation), computed through Resolved.Spec. It is the one
// choke point every cacheable grid cell passes through, so the fabric
// dispatch hook plugged in here covers every table, figure and sweep:
// with Exec configured, the cell is handed to the hook (content
// address plus re-executable description, and the run's shared Store
// for a preparation that runs in this process) and the returned
// canonical bytes are decoded in place of a local run. Only the
// preparation's sub-runs go through the Store: the cell's own run is
// simulated whichever way the cell is executed, so a grid simulates the
// same runs with and without Exec.
func (o Options) controlTask(bench, label, ctrl string, p control.Params, res control.Resolved, run control.Run) runner.Task[stats.Result] {
	key, _ := res.Key(run) // "": no content address, computed directly
	if o.Exec != nil && key != "" {
		cell := o.cell(label, bench, ctrl, key, p)
		cell.Store = run.Store
		return runner.Task[stats.Result]{Name: label, Run: func(ctx context.Context) (stats.Result, error) {
			b, err := o.Exec(ctx, cell)
			if err != nil {
				return stats.Result{}, err
			}
			return resultcache.DecodeResult(b)
		}}
	}
	return runner.Task[stats.Result]{Name: label, Run: func(context.Context) (stats.Result, error) {
		r, _, err := o.Cache.DoResult(key, func() (stats.Result, error) {
			spec, err := res.Spec(run)
			if err != nil {
				return stats.Result{}, err
			}
			return sim.Run(spec), nil
		})
		return r, err
	}}
}

// sweepSamples is how many points a controller sweep takes from the
// schema range when no explicit values are given — the same count the
// paper's sensitivity figures plot.
const sweepSamples = 7

// sampleRange returns n evenly spaced values across [lo, hi].
func sampleRange(lo, hi float64, n int) []float64 {
	if n < 2 || hi <= lo {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// FormatSweep renders a sweep as the two series the paper plots: EDP
// improvement (Figure 6) and power/performance ratio (Figure 7), plus
// the measured degradation (Figure 5a's y-axis). The swept values are
// printed as percentages — the paper's parameters are all fractions.
func FormatSweep(title, xlabel string, points []SweepPoint) string {
	return formatSweep(title, xlabel, points, func(v float64) string {
		return fmt.Sprintf("%11.3f%%", v*100)
	})
}

// FormatControllerSweep renders a registry-generic sweep: swept values
// are printed raw, because a controller schema parameter can be
// anything from a fraction to a MHz budget to a queue occupancy.
func FormatControllerSweep(title, xlabel string, points []SweepPoint) string {
	return formatSweep(title, xlabel, points, func(v float64) string {
		return fmt.Sprintf("%12.6g", v)
	})
}

func formatSweep(title, xlabel string, points []SweepPoint, value func(float64) string) string {
	s := title + "\n"
	s += fmt.Sprintf("%-12s %10s %12s %12s %12s\n", xlabel, "PerfDeg", "EnergySav", "EDPImprov", "Power/Perf")
	for _, p := range points {
		s += fmt.Sprintf("%s %9.1f%% %11.1f%% %11.1f%% %12.2f\n",
			value(p.Value),
			p.Summary.PerfDegradation*100,
			p.Summary.EnergySavings*100,
			p.Summary.EDPImprovement*100,
			p.Summary.PowerPerfRatio)
	}
	return s
}
