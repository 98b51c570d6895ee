package wire

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"mcd/internal/bench"
	"mcd/internal/control"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// Experiment names accepted by ExperimentRequest.Name, besides one
// "sweep-"+figure per paper sensitivity figure (bench.PaperSweeps).
const (
	ExpTable6   = "table6"
	ExpFig4     = "fig4"
	ExpHeadline = "headline"
	ExpAll      = "all"
	// ExpSweepController is the registry-generic sensitivity sweep: any
	// registered controller, any numeric schema parameter (see
	// ExperimentRequest.Controller/Param/Values).
	ExpSweepController = "sweep-controller"
)

// Experiments returns the valid experiment names, sorted.
func Experiments() []string {
	e := []string{ExpTable6, ExpFig4, ExpHeadline, ExpAll, ExpSweepController}
	for fig := range bench.PaperSweeps {
		e = append(e, "sweep-"+fig)
	}
	sort.Strings(e)
	return e
}

// ExperimentRequest names a whole table, figure or sweep: the JSON body
// of POST /v1/experiments and the programmatic form of cmd/mcdbench and
// cmd/mcdsweep invocations.
type ExperimentRequest struct {
	Name string `json:"name"`
	// Quick selects the reduced scale (bench.QuickOptions).
	Quick bool `json:"quick,omitempty"`
	// Window/Warmup override the scale's instruction counts.
	Window uint64 `json:"window,omitempty"`
	Warmup uint64 `json:"warmup,omitempty"`
	// Benchmarks filters the catalog by name; empty means the scale's
	// default set.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Fidelity selects the simulation tier for every cell of the
	// experiment ("" or "exact": the cycle-exact engine; "sampled":
	// interval sampling with checkpointed warmup reuse). SampleEvery is
	// the sampled tier's detailed-interval cadence (0: the default, 10).
	Fidelity    string `json:"fidelity,omitempty"`
	SampleEvery int    `json:"sample_every,omitempty"`

	// Values overrides the swept x-axis values of any sweep-*
	// experiment; empty keeps the figure's published set, or — for
	// sweep-controller — samples the parameter's documented range.
	Values []float64 `json:"values,omitempty"`
	// Controller and Param select the registered controller and the
	// schema parameter a sweep-controller experiment sweeps, and Params
	// fixes its remaining parameters. The other experiments reject them,
	// as the grid experiments reject Values.
	Controller string             `json:"controller,omitempty"`
	Param      string             `json:"param,omitempty"`
	Params     map[string]float64 `json:"params,omitempty"`
}

// Validate checks the experiment name, the fields it takes and the
// benchmark filter — an unknown benchmark would otherwise be silently
// filtered out of the grid and the experiment would "succeed" over an
// empty catalog, and an ignored field would silently not apply.
func (e ExperimentRequest) Validate() error {
	if !slices.Contains(Experiments(), e.Name) {
		return fmt.Errorf("unknown experiment %q (valid: %s)", e.Name, strings.Join(Experiments(), ", "))
	}
	ctrl := e.Name == ExpSweepController
	for _, f := range []struct {
		name       string
		set, takes bool
	}{
		{"controller", e.Controller != "", ctrl},
		{"param", e.Param != "", ctrl},
		{"params", len(e.Params) != 0, ctrl},
		{"values", len(e.Values) != 0, strings.HasPrefix(e.Name, "sweep-")},
	} {
		if f.set && !f.takes {
			return fmt.Errorf("experiment %q takes no %q field", e.Name, f.name)
		}
	}
	for _, b := range e.Benchmarks {
		if _, ok := workload.Lookup(b); !ok {
			return fmt.Errorf("unknown benchmark %q (see mcdbench -exp table5 for the catalog)", b)
		}
	}
	if _, err := sim.ParseFidelity(e.Fidelity); err != nil {
		return err
	}
	if e.Name == ExpSweepController {
		if e.Controller == "" || e.Param == "" {
			return fmt.Errorf("experiment %q needs controller and param", ExpSweepController)
		}
		// Resolving with the swept parameter included validates the
		// controller name, the fixed overrides and the swept name against
		// the registry (rejecting alias-pinned parameters) with the same
		// error wording a run request would get.
		probe := control.Params{e.Param: 0}
		for k, v := range e.Params {
			probe[k] = v
		}
		if _, err := control.Resolve(e.Controller, probe); err != nil {
			return err
		}
	}
	return nil
}

// Options maps the request onto harness options the same way the
// mcdbench flags do. Cache, Workers, Progress and Context are the
// caller's to set on the returned value.
func (e ExperimentRequest) Options() bench.Options {
	opts := bench.DefaultOptions()
	if e.Quick {
		opts = bench.QuickOptions()
	}
	if e.Window != 0 {
		opts.Window = e.Window
	}
	if e.Warmup != 0 {
		opts.Warmup = e.Warmup
	}
	if len(e.Benchmarks) != 0 {
		opts.Benchmarks = e.Benchmarks
	}
	if fid, err := sim.ParseFidelity(e.Fidelity); err == nil {
		opts.Fidelity = fid
	}
	opts.SampleEvery = e.SampleEvery
	return opts
}

// Comparison is the machine-readable form of one Table 6 / Figure 4
// row: every configuration's Result for one benchmark.
type Comparison struct {
	Benchmark string       `json:"benchmark"`
	Suite     string       `json:"suite"`
	Sync      stats.Result `json:"sync"`
	MCDBase   stats.Result `json:"mcd_base"`
	AD        stats.Result `json:"attack_decay"`
	Dyn1      stats.Result `json:"dynamic_1"`
	Dyn5      stats.Result `json:"dynamic_5"`
	GlobalAD  stats.Result `json:"global_attack_decay"`
	GlobalD1  stats.Result `json:"global_dynamic_1"`
	GlobalD5  stats.Result `json:"global_dynamic_5"`
}

// ExperimentResult is what the service serves for a finished experiment
// job and what mcdbench/mcdsweep -json print: the human-readable table
// text plus the structured series behind it.
type ExperimentResult struct {
	Experiment  string             `json:"experiment"`
	Output      string             `json:"output"`
	Comparisons []Comparison       `json:"comparisons,omitempty"`
	Sweep       []bench.SweepPoint `json:"sweep,omitempty"`
}

// EncodeExperiment renders the canonical bytes of an experiment result
// (compact JSON, trailing newline — the same convention as result
// encodings).
func EncodeExperiment(r ExperimentResult) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("wire: encode experiment: %w", err)
	}
	return append(b, '\n'), nil
}

// FromComparisons assembles the result of a grid experiment that has
// already run, so one RunAll can feed several renderings (mcdbench
// -exp all). ExpAll's output includes the static tables 1–5 followed by
// the measured artifacts — exactly what the text CLI prints, so text
// and JSON modes carry the same content.
func FromComparisons(name string, cs []bench.Comparison) ExperimentResult {
	out := ""
	switch name {
	case ExpTable6:
		out = bench.Table6(cs)
	case ExpFig4:
		out = bench.Fig4(cs)
	case ExpHeadline:
		out = bench.Headline(cs)
	case ExpAll:
		for _, static := range []func() string{
			bench.Table1, bench.Table2, bench.Table3, bench.Table4, bench.Table5,
		} {
			out += static() + "\n"
		}
		out += bench.Table6(cs) + "\n" + bench.Fig4(cs) + "\n" + bench.Headline(cs)
	}
	res := ExperimentResult{Experiment: name, Output: out, Comparisons: make([]Comparison, len(cs))}
	for i, c := range cs {
		res.Comparisons[i] = Comparison{
			Benchmark: c.Bench.Name, Suite: c.Bench.Suite,
			Sync: c.Sync, MCDBase: c.MCDBase, AD: c.AD, Dyn1: c.Dyn1, Dyn5: c.Dyn5,
			GlobalAD: c.GlobalAD, GlobalD1: c.GlobalD1, GlobalD5: c.GlobalD5,
		}
	}
	return res
}

// RunExperimentRequest executes an experiment request on the given
// harness options — the one execution path shared by the CLIs and the
// service, so both render byte-identical bodies. Grid experiments
// (table6/fig4/headline/all) run the Table 6 comparison matrix; every
// sweep-* runs one SweepController call: a paper figure sweeps its
// bench.PaperSweeps row over attack-decay, sweep-controller the
// request's own controller and parameter.
func RunExperimentRequest(opts bench.Options, e ExperimentRequest) (ExperimentResult, error) {
	if err := e.Validate(); err != nil {
		return ExperimentResult{}, err
	}
	fig := strings.TrimPrefix(e.Name, "sweep-")
	row, paper := bench.PaperSweeps[fig]
	if !paper && e.Name != ExpSweepController {
		return FromComparisons(e.Name, opts.RunAll()), nil
	}
	ctrl, param, values, fixed := e.Controller, e.Param, e.Values, e.Params
	if paper {
		ctrl, param, fixed = "attack-decay", row.Param, row.Fixed
		if len(values) == 0 {
			values = row.Values
		}
	}
	pts, err := opts.SweepController(ctrl, param, values, fixed)
	if err != nil {
		return ExperimentResult{}, err
	}
	var out string
	if paper {
		out = bench.FormatSweep(row.Title, fig, pts)
	} else {
		title := fmt.Sprintf("Sensitivity: controller %s, parameter %s", e.Controller, e.Param)
		out = bench.FormatControllerSweep(title, e.Param, pts)
	}
	return ExperimentResult{Experiment: e.Name, Output: out, Sweep: pts}, nil
}
