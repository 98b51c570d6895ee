// Command mcdbench regenerates the paper's tables, the Figure 4 series
// and the Figures 5–7 sensitivity sweeps, and sweeps any numeric
// parameter of any registered controller (the set `mcdsim -config`
// accepts and GET /v1/controllers advertises).
//
// Usage:
//
//	mcdbench -exp table6           # full Table 6 over all 30 benchmarks
//	mcdbench -exp fig4 -quick      # Figure 4 on the 10-benchmark subset
//	mcdbench -exp headline
//	mcdbench -exp table1|table2|table3|table4|table5   # static tables: no other request flag
//	mcdbench -exp sweep-target -quick                  # Figure 5
//	mcdbench -exp sweep-decay|sweep-reaction|sweep-deviation -quick   # Figures 6/7
//	mcdbench -exp sweep-decay -quick -values 0.0075,0.02   # chosen x-axis values
//	mcdbench -exp sweep-controller -quick -controller pi -param kp   # kp over its documented range
//	mcdbench -exp sweep-controller -quick -controller pi -param kp -values 0.02,0.05,0.1 -set setpoint=3
//	mcdbench -exp table6 -cache /var/cache/mcd   # reuse completed cells
//	mcdbench -exp table6 -json     # machine-readable (wire.ExperimentResult)
//	mcdbench -exp table6 -cpuprofile cpu.out     # pprof capture of the run
//	mcdbench -benchjson                          # hot-path perf report (BENCH_5.json schema); other flags but -benchbaseline and the profiles exit 2
//	mcdbench -benchjson -benchbaseline BENCH_5.json   # CI perf-regression gate
//	mcdbench -exp table6 -quick -server http://localhost:8080   # run on a server (or fabric coordinator)
//
// With -server the experiment is submitted to a running mcdserve
// instance instead of computed in-process: the job is polled to
// completion and its result body printed — byte-identical to the local
// run by the determinism contract, whether the server computes locally
// or shards the grid across a worker fleet.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strings"
	"time"

	"mcd/internal/bench"
	"mcd/internal/prof"
	"mcd/internal/service"
	"mcd/internal/wire"
)

func main() {
	var (
		exp       = flag.String("exp", "headline", "experiment: table1..table6, fig4, headline, all, or a sweep-* experiment")
		quick     = flag.Bool("quick", false, "reduced scale (subset of benchmarks, shorter windows)")
		window    = flag.Uint64("window", 0, "override measured instructions per run")
		warmup    = flag.Uint64("warmup", 0, "override warmup instructions per run")
		benchF    = flag.String("bench", "", "comma-separated benchmark filter")
		quiet     = flag.Bool("quiet", false, "suppress progress output")
		workers   = flag.Int("workers", runtime.NumCPU(), "parallel simulation workers (results are identical for any value)")
		cacheDir  = flag.String("cache", "", "result-store directory: completed cells are reused across invocations")
		jsonOut   = flag.Bool("json", false, "emit the machine-readable experiment encoding (as served by mcdserve)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file (written on clean exit)")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on clean exit")
		benchJSON = flag.Bool("benchjson", false, "run the hot-path perf benchmarks and print the JSON report (BENCH_5.json schema)")
		baseline  = flag.String("benchbaseline", "", "with -benchjson: compare against this committed report and exit 1 on regression")
		server    = flag.String("server", "", "submit the experiment to this mcdserve base URL instead of computing in-process")
		fidelity  = flag.String("fidelity", "", "simulation tier: exact (default) | sampled (interval sampling with checkpointed warmup reuse)")
		sampleN   = flag.Int("sample-every", 0, "sampled tier's detailed-interval cadence (0: default 10)")
		validate  = flag.Bool("validate-fidelity", false, "run the comparison grid exact AND sampled, report sampled-vs-exact error and speedup, exit 1 over the bounds")
		maxErr    = flag.Float64("max-err", 0.02, "with -validate-fidelity: maximum mean relative CPI/EPI error across the grid")
		maxCell   = flag.Float64("max-cell-err", 0.06, "with -validate-fidelity: maximum single-cell relative CPI/EPI error")
		minSpeed  = flag.Float64("min-speedup", 5, "with -validate-fidelity: minimum sampled-over-exact wall-clock speedup (0: don't gate)")
		values    = flag.String("values", "", "with a sweep-* experiment: comma-separated swept values (default: the figure's published set, or the parameter's documented range)")
		ctrl      = flag.String("controller", "", "with -exp sweep-controller: the registered controller to sweep")
		param     = flag.String("param", "", "with -exp sweep-controller: the controller's schema parameter to sweep")
		set       = flag.String("set", "", "with -exp sweep-controller: fixed parameter overrides, name=value[,name=value...]")
	)
	flag.Parse()
	if *benchJSON {
		// The perf report reads no request: a request flag beside it
		// would be silently ignored.
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "benchjson", "benchbaseline", "cpuprofile", "memprofile":
			default:
				fmt.Fprintf(os.Stderr, "mcdbench: -benchjson takes no -%s\n", f.Name)
				os.Exit(2)
			}
		})
	}

	// Every experiment is one request, the service's: the local and
	// -server paths run the same one, and wire maps it onto harness
	// options.
	req := wire.ExperimentRequest{
		Name: *exp, Quick: *quick,
		Window: *window, Warmup: *warmup,
		Benchmarks: bench.SplitNames(*benchF),
		Fidelity:   *fidelity, SampleEvery: *sampleN,
		Controller: *ctrl, Param: *param,
	}
	var err error
	if req.Values, err = wire.ParseValues(*values); err == nil {
		req.Params, err = wire.ParseParams(*set)
	}
	if err == nil {
		err = req.Validate()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		os.Exit(2)
	}

	if *server != "" {
		os.Exit(runOnServer(strings.TrimRight(*server, "/"), req, *jsonOut, *quiet))
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		}
	}()

	if *benchJSON {
		code := runBenchJSON(*baseline)
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		}
		os.Exit(code)
	}

	opts := req.Options()
	if !*quiet {
		opts.Log = os.Stderr
	}
	opts.Workers = *workers

	if *validate {
		// The validation harness times both tiers itself; a cache would
		// turn the exact leg into store lookups, so -cache is rejected.
		if *cacheDir != "" {
			fmt.Fprintln(os.Stderr, "mcdbench: -validate-fidelity and -cache are incompatible (timing needs real runs)")
			os.Exit(2)
		}
		report := opts.ValidateFidelity()
		fmt.Print(report.Format())
		if fails := report.Check(*maxErr, *maxCell, *minSpeed); len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintf(os.Stderr, "mcdbench: fidelity validation failed: %s\n", f)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mcdbench: fidelity validation passed (max err %.2f%%, speedup %.1f×)\n",
			max(report.MaxCPIErr, report.MaxEPIErr)*100, report.Speedup)
		return
	}

	if err := opts.AttachCache(*cacheDir); err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		os.Exit(1)
	}

	res, err := wire.RunExperimentRequest(opts, req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Print(res.Output)
		return
	}
	b, err := wire.EncodeExperiment(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		os.Exit(1)
	}
	os.Stdout.Write(b)
}

// runOnServer submits one experiment to a running mcdserve, polls the
// job to a terminal state, and prints the result body: the raw
// canonical encoding with jsonOut, the human-readable report text
// otherwise. Exit codes mirror the in-process path.
func runOnServer(base string, req wire.ExperimentRequest, jsonOut, quiet bool) int {
	client := &http.Client{Timeout: 30 * time.Second}
	body, err := json.Marshal(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		return 1
	}
	resp, err := client.Post(base+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		return 1
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		fmt.Fprintf(os.Stderr, "mcdbench: submit: status %d: %s\n", resp.StatusCode, strings.TrimSpace(string(raw)))
		return 1
	}
	var snap service.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil || snap.ID == "" {
		fmt.Fprintf(os.Stderr, "mcdbench: submit: unexpected response %q\n", strings.TrimSpace(string(raw)))
		return 1
	}
	for !snap.Terminal() {
		time.Sleep(250 * time.Millisecond)
		r, err := client.Get(base + "/v1/jobs/" + snap.ID)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcdbench: poll: %v\n", err)
			return 1
		}
		err = json.NewDecoder(r.Body).Decode(&snap)
		r.Body.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "mcdbench: poll: %v\n", err)
			return 1
		}
		if !quiet && snap.Total > 0 {
			fmt.Fprintf(os.Stderr, "\r%s %d/%d %s        ", snap.ID, snap.Done, snap.Total, snap.Task)
		}
	}
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	if snap.State == service.Failed {
		fmt.Fprintf(os.Stderr, "mcdbench: job %s failed: %s\n", snap.ID, snap.Error)
		return 1
	}
	r, err := client.Get(base + "/v1/jobs/" + snap.ID + "/result")
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: result: %v\n", err)
		return 1
	}
	defer r.Body.Close()
	out, err := io.ReadAll(r.Body)
	if err != nil || r.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "mcdbench: result: status %d: %v\n", r.StatusCode, err)
		return 1
	}
	if jsonOut {
		os.Stdout.Write(out)
		return 0
	}
	var res wire.ExperimentResult
	if err := json.Unmarshal(out, &res); err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: result: %v\n", err)
		return 1
	}
	fmt.Print(res.Output)
	return 0
}

// runBenchJSON measures the hot-path benchmarks, prints the report, and
// gates it against the committed baseline when one is given: the alloc
// counts are exact; wall time only fails on a blowout (CI machines are
// noisy — see bench.PerfReport.CheckAgainst for the tolerances).
func runBenchJSON(baselinePath string) int {
	report := bench.MeasurePerf()
	out, err := report.Encode()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		return 1
	}
	os.Stdout.Write(out)
	if baselinePath == "" {
		return 0
	}
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		return 1
	}
	base, err := bench.DecodePerfReport(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdbench: %v\n", err)
		return 1
	}
	if fails := report.CheckAgainst(base); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "mcdbench: perf regression: %s\n", f)
		}
		return 1
	}
	fmt.Fprintf(os.Stderr, "mcdbench: perf gate passed against %s\n", baselinePath)
	return 0
}
