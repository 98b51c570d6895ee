// Command mcdsim runs a single benchmark under one controller and
// prints the measurements.
//
// Usage:
//
//	mcdsim -bench mcf -config attack-decay -window 400000 -warmup 200000
//	mcdsim -bench mcf -config pi -params kp=0.08,setpoint=3
//	mcdsim -bench mcf -json          # canonical JSON, as served by mcdserve
//	mcdsim -bench mcf -live          # per-interval telemetry as it is produced
//	mcdsim -bench mcf -live -json    # the mcdserve stream body: NDJSON frames
//
// The -config set is the controller registry (internal/control): the
// paper's five configurations (sync, mcd, attack-decay, dynamic-1,
// dynamic-5) plus every other registered controller (pi, coord,
// dynamic, ...). `mcdserve` advertises the same set with parameter
// schemas at GET /v1/controllers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"mcd"
	"mcd/internal/bench"
	"mcd/internal/prof"
	"mcd/internal/resultcache"
	"mcd/internal/wire"
)

func main() {
	d := bench.DefaultOptions()
	var (
		benchName = flag.String("bench", "epic.decode", "benchmark name (see mcdbench -exp table5)")
		// The valid set comes from the controller registry via wire, so
		// this listing and the service can never drift.
		config = flag.String("config", "attack-decay",
			"controller: "+strings.Join(wire.Controllers(), " | "))
		params   = flag.String("params", "", "controller parameter overrides, name=value[,name=value...]")
		window   = flag.Uint64("window", d.Window, "measured instructions")
		warmup   = flag.Uint64("warmup", d.Warmup, "warmup instructions")
		interval = flag.Uint64("interval", d.IntervalLength, "controller sampling interval (instructions)")
		slew     = flag.Float64("slew", bench.SlewNsPerMHz, "regulator slew in ns/MHz (paper scale: 49.1)")
		fidelity = flag.String("fidelity", "", "simulation tier: exact (default) | sampled (interval sampling with checkpointed warmup reuse)")
		sampleN  = flag.Int("sample-every", 0, "sampled tier's detailed-interval cadence (0: default 10)")
		jsonOut  = flag.Bool("json", false, "emit the canonical machine-readable result encoding")
		live     = flag.Bool("live", false, "print each control interval as it is produced (with -json: NDJSON stream frames)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (written on clean exit)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on clean exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdsim: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "mcdsim: %v\n", err)
		}
	}()

	p, err := wire.ParseParams(*params)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdsim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	// warmup/interval/slew are passed as pointers: the flags always
	// carry explicit values, so -warmup 0 (cold start), -interval 0
	// (pipeline default period) and -slew 0 (ideal regulator) keep
	// their meanings instead of falling back to the wire defaults.
	req := wire.RunRequest{
		Benchmark:    *benchName,
		Config:       *config,
		Params:       p,
		Window:       *window,
		Warmup:       warmup,
		Interval:     interval,
		SlewNsPerMHz: slew,
		Fidelity:     *fidelity,
		SampleEvery:  *sampleN,
	}
	// Reject unknown benchmark/controller/parameter values up front with
	// the valid sets, before any simulation starts.
	run, err := req.Resolve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdsim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	// With -live the stepped run prints every measured control interval
	// the moment it is produced; the result bytes are the same either
	// way.
	enc := json.NewEncoder(os.Stdout)
	var emit func(mcd.Interval)
	if *live {
		emit = func(iv mcd.Interval) {
			if *jsonOut {
				enc.Encode(wire.IntervalFrame(&iv))
				return
			}
			fmt.Printf("interval %4d  ipc %6.3f  freq MHz fe=%.0f int=%.0f fp=%.0f ls=%.0f\n",
				iv.Index, iv.IPC, iv.FreqMHz[mcd.FrontEnd], iv.FreqMHz[mcd.Integer],
				iv.FreqMHz[mcd.FloatingPoint], iv.FreqMHz[mcd.LoadStore])
		}
	}
	body, _, err := run.Run(context.Background(), nil, wire.RunHooks{Emit: emit})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdsim: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		if *live {
			enc.Encode(wire.ResultFrame(body, false))
		} else {
			os.Stdout.Write(body)
		}
		return
	}
	res, err := resultcache.DecodeResult(body)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcdsim: %v\n", err)
		os.Exit(1)
	}

	bench, _ := mcd.LookupBenchmark(*benchName)
	fmt.Printf("benchmark    %s (%s)\n", bench.Name, bench.Suite)
	fmt.Printf("config       %s\n", *config)
	fmt.Printf("instructions %d\n", res.Instructions)
	fmt.Printf("time         %.3f µs\n", res.TimePS/1e6)
	fmt.Printf("CPI (1 GHz)  %.4f\n", res.CPI())
	fmt.Printf("energy       %.3f µJ (EPI %.1f pJ)\n", res.EnergyPJ/1e6, res.EPI())
	fmt.Printf("power        %.3f W\n", res.PowerW())
	fmt.Printf("branch acc   %.2f%%   L1D miss %.2f%%   L2 miss %.2f%%\n",
		res.BranchAccuracy*100, res.L1DMissRate*100, res.L2MissRate*100)
	fmt.Printf("avg freq MHz fe=%.0f int=%.0f fp=%.0f ls=%.0f (transitions %d)\n",
		res.AvgFreqMHz[mcd.FrontEnd], res.AvgFreqMHz[mcd.Integer],
		res.AvgFreqMHz[mcd.FloatingPoint], res.AvgFreqMHz[mcd.LoadStore], res.Transitions)
}
