// Command mcdsweep runs sensitivity sweeps. Without -controller it
// regenerates the paper's figures: Figure 5 (performance-degradation
// target), Figures 6/7 (Decay, ReactionChange, DeviationThreshold
// sensitivity), printing one row per swept value with the
// suite-averaged metrics. With -controller it sweeps any numeric
// parameter of any registered controller (the set `mcdsim -config`
// accepts and GET /v1/controllers advertises).
//
// Usage:
//
//	mcdsweep -param target                    # Figure 5
//	mcdsweep -param decay                     # Figures 6a / 7a
//	mcdsweep -param reaction                  # Figures 6b / 7b
//	mcdsweep -param deviation                 # Figures 6c / 7c
//	mcdsweep -controller pi -param kp         # sweep kp over its documented range
//	mcdsweep -controller pi -param kp -values 0.02,0.05,0.1 -set setpoint=3
//	mcdsweep -controller coord -param budget_mhz
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"mcd/internal/bench"
	"mcd/internal/wire"
)

func main() {
	var (
		controller = flag.String("controller", "", "registered controller to sweep (empty: the paper's Attack/Decay figures)")
		param      = flag.String("param", "target", "target | decay | reaction | deviation, or any schema parameter with -controller")
		values     = flag.String("values", "", "comma-separated swept values (default: the figure's published set; with -controller, the parameter's documented range)")
		set        = flag.String("set", "", "fixed parameter overrides, name=value[,name=value...] (with -controller)")
		quick      = flag.Bool("quick", true, "reduced scale (10-benchmark subset)")
		benchF     = flag.String("bench", "", "comma-separated benchmark filter")
		quiet      = flag.Bool("quiet", false, "suppress progress output")
		workers    = flag.Int("workers", runtime.NumCPU(), "parallel simulation workers (results are identical for any value)")
		cacheDir   = flag.String("cache", "", "result-store directory: completed sweep cells are reused across invocations")
		fidelity   = flag.String("fidelity", "", "simulation tier: exact (default) | sampled (interval sampling with checkpointed warmup reuse)")
		sampleN    = flag.Int("sample-every", 0, "sampled tier's detailed-interval cadence (0: default 10)")
	)
	flag.Parse()

	vals, err := parseValues(*values)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdsweep: %v\n", err)
		os.Exit(2)
	}

	// One request, the service's: wire maps it onto harness options and
	// owns the experiment execution, so CLI output and mcdserve
	// experiment bodies stay byte-for-byte in agreement.
	req := wire.ExperimentRequest{
		Name:        "sweep-" + *param,
		Quick:       *quick,
		Benchmarks:  bench.SplitNames(*benchF),
		Values:      vals,
		Fidelity:    *fidelity,
		SampleEvery: *sampleN,
	}
	if *controller != "" {
		fixed, err := wire.ParseParams(*set)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcdsweep: %v\n", err)
			os.Exit(2)
		}
		req.Name, req.Controller, req.Param, req.Params = wire.ExpSweepController, *controller, *param, fixed
	} else {
		if *set != "" {
			fmt.Fprintln(os.Stderr, "mcdsweep: -set needs -controller (the paper sweeps fix their own parameters)")
			os.Exit(2)
		}
		// Name the flag and its valid values, rather than letting the
		// synthesized experiment name fail validation confusingly.
		if _, ok := bench.PaperSweeps[*param]; !ok {
			fmt.Fprintf(os.Stderr,
				"mcdsweep: unknown parameter %q (want target, decay, reaction or deviation; use -controller to sweep any registered controller's parameter)\n",
				*param)
			os.Exit(2)
		}
	}
	if err := req.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "mcdsweep: %v\n", err)
		os.Exit(2)
	}

	opts := req.Options()
	opts.Workers = *workers
	if !*quiet {
		opts.Log = os.Stderr
	}
	if err := opts.AttachCache(*cacheDir); err != nil {
		fmt.Fprintf(os.Stderr, "mcdsweep: %v\n", err)
		os.Exit(1)
	}
	res, err := wire.RunExperimentRequest(opts, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdsweep: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(res.Output)
}

func parseValues(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad swept value %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}
