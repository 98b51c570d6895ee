package wire

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"mcd/internal/bench"
)

// TestPaperSweepsAreRegistrySweeps pins the one path of the paper's
// Figures 5–7: every sweep-* experiment other than sweep-controller is a
// row of bench.PaperSweeps, and running it yields exactly the points of
// SweepController over the registered attack-decay controller with the
// row's parameter, published values and fixed parameters.
func TestPaperSweepsAreRegistrySweeps(t *testing.T) {
	var exps, figs []string
	for _, e := range Experiments() {
		if fig, ok := strings.CutPrefix(e, "sweep-"); ok && e != ExpSweepController {
			exps = append(exps, fig)
		}
	}
	for fig := range bench.PaperSweeps {
		figs = append(figs, fig)
	}
	sort.Strings(figs)
	if !reflect.DeepEqual(exps, figs) {
		t.Fatalf("sweep experiments %v, paper sweep table %v", exps, figs)
	}

	for _, fig := range figs {
		req := ExperimentRequest{Name: "sweep-" + fig, Quick: true, Window: 4_000, Warmup: 2_000,
			Benchmarks: []string{"adpcm", "mcf"}}
		res, err := RunExperimentRequest(req.Options(), req)
		if err != nil {
			t.Fatalf("%s: %v", req.Name, err)
		}
		row := bench.PaperSweeps[fig]
		want, err := req.Options().SweepController("attack-decay", row.Param, row.Values, row.Fixed)
		if err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		if !reflect.DeepEqual(res.Sweep, want) {
			t.Errorf("%s: experiment points differ from the registry sweep", req.Name)
		}
		if out := bench.FormatSweep(row.Title, fig, want); res.Output != out {
			t.Errorf("%s: output\n%s\nwant\n%s", req.Name, res.Output, out)
		}
	}
}
