package bench

import (
	"context"
	"fmt"
	"strings"

	"mcd/internal/clock"
	"mcd/internal/control"
	"mcd/internal/core"
	"mcd/internal/dvfs"
	"mcd/internal/hw"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/runner"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// Table1 prints the MCD processor configuration parameters.
func Table1() string {
	cfg := pipeline.DefaultConfig()
	s := "Table 1: MCD processor configuration parameters\n"
	s += fmt.Sprintf("  %-28s %.2f V - %.2f V\n", "Domain Voltage", dvfs.DefaultMinVoltage, dvfs.DefaultMaxVoltage)
	s += fmt.Sprintf("  %-28s %d MHz - %d MHz (%d points)\n", "Domain Frequency",
		dvfs.DefaultMinFreqMHz, dvfs.DefaultMaxFreqMHz, dvfs.DefaultPoints)
	s += fmt.Sprintf("  %-28s %.1f ns/MHz\n", "Frequency Change Rate", dvfs.DefaultSlewNsPerMHz)
	s += fmt.Sprintf("  %-28s %.0f ps, normally distributed about zero\n", "Domain Clock Jitter", cfg.JitterPS)
	s += fmt.Sprintf("  %-28s %.0f%% of 1.0 GHz clock (%.0f ps)\n", "Synchronization Window",
		cfg.SyncWindowPS/clock.PeriodPS(cfg.MaxFreqMHz)*100, cfg.SyncWindowPS)
	return s
}

// Table2 prints the Attack/Decay configuration parameter ranges.
func Table2() string {
	s := "Table 2: Attack/Decay configuration parameters\n"
	rows := [][2]string{
		{"DeviationThreshold", "0 - 2.5%"},
		{"ReactionChange", "0.5 - 15.5%"},
		{"Decay", "0 - 2%"},
		{"PerfDegThreshold", "0 - 12%"},
		{"EndstopCount", "1 - 25 intervals"},
	}
	for _, r := range rows {
		s += fmt.Sprintf("  %-22s %s\n", r[0], r[1])
	}
	p := core.DefaultParams()
	s += fmt.Sprintf("  headline configuration: %s (EndstopCount %d)\n", p.Label(), p.EndstopCount)
	return s
}

// Table3 prints the gate-count estimates.
func Table3() string {
	s := "Table 3: hardware resources to implement the Attack/Decay algorithm\n"
	s += fmt.Sprintf("  %-44s %-42s %6s\n", "Component", "Estimation", "Gates")
	for _, c := range hw.Components() {
		s += fmt.Sprintf("  %-44s %-42s %6d\n", c.Name, c.Estimation, c.Gates())
	}
	s += fmt.Sprintf("  per controlled domain: %d gates; four-domain total (with interval counter): %d gates (< 2,500)\n",
		hw.GatesPerDomain(), hw.TotalGates(4))
	return s
}

// Table4 prints the architectural parameters of the simulated processor.
func Table4() string {
	cfg := pipeline.DefaultConfig()
	bp := "1024 entries, history 10 / 1024 L2 / 1024 bimodal / 4096 chooser"
	s := "Table 4: architectural parameters (Alpha 21264-like)\n"
	rows := [][2]string{
		{"Branch predictor", bp},
		{"BTB", "4096 sets, 2-way"},
		{"Branch mispredict penalty", fmt.Sprint(cfg.MispredictPenalty)},
		{"Decode width", fmt.Sprint(cfg.DecodeWidth)},
		{"Issue width", fmt.Sprint(cfg.IntALUs + cfg.FPALUs)},
		{"Retire width", fmt.Sprint(cfg.RetireWidth)},
		{"L1 data cache", "64KB, 2-way set associative"},
		{"L1 instruction cache", "64KB, 2-way set associative"},
		{"L2 unified cache", "1MB, direct mapped"},
		{"L1 / L2 latency", fmt.Sprintf("%d / %d cycles", cfg.L1Lat, cfg.L2Lat)},
		{"Integer ALUs", fmt.Sprintf("%d + %d mult/div", cfg.IntALUs, cfg.IntMuls)},
		{"Floating-point ALUs", fmt.Sprintf("%d + %d mult/div/sqrt", cfg.FPALUs, cfg.FPMuls)},
		{"Integer issue queue", fmt.Sprintf("%d entries", cfg.IntIQSize)},
		{"FP issue queue", fmt.Sprintf("%d entries", cfg.FPIQSize)},
		{"Load/store queue", fmt.Sprint(cfg.LSQSize)},
		{"Physical register file", fmt.Sprintf("%d integer, %d floating-point (rename)", cfg.IntRenameRegs+32, cfg.FPRenameRegs+32)},
		{"Reorder buffer", fmt.Sprint(cfg.ROBSize)},
	}
	for _, r := range rows {
		s += fmt.Sprintf("  %-28s %s\n", r[0], r[1])
	}
	return s
}

// Table5 prints the benchmark catalog.
func Table5() string {
	s := "Table 5: benchmark applications (synthetic models; see DESIGN.md)\n"
	s += fmt.Sprintf("  %-12s %-12s %s\n", "Benchmark", "Suite", "Datasets / simulation window")
	for _, b := range workload.Catalog() {
		s += fmt.Sprintf("  %-12s %-12s %s\n", b.Name, b.Suite, b.Datasets)
	}
	return s
}

// traceSpec is the one construction point of a Figure 2/3 trace run:
// the registered attack-decay controller at its schema defaults,
// exact-tier, recording every interval.
func (o Options) traceSpec(b workload.Benchmark) (sim.Spec, error) {
	res, err := control.Resolve("attack-decay", nil)
	if err != nil {
		return sim.Spec{}, err
	}
	run := o.controlRun(b)
	run.Fidelity, run.SampleEvery = "", 0
	run.Name = "attack-decay-trace"
	spec, err := res.Spec(run)
	spec.RecordIntervals = true
	return spec, err
}

// TraceMany records the Figure 2/3 interval trace of several benchmarks,
// fanned out across the options' worker pool; results come back in
// argument order. Unknown names fail up front, before any simulation
// starts.
func (o Options) TraceMany(names []string) ([]stats.Result, error) {
	tasks := make([]runner.Task[stats.Result], len(names))
	for i, name := range names {
		if _, ok := workload.Lookup(name); !ok {
			return nil, fmt.Errorf("bench: unknown benchmark %q", name)
		}
		tasks[i] = runner.Task[stats.Result]{Name: name + "/trace", Run: func(context.Context) (stats.Result, error) {
			return o.FollowTrace(name, nil)
		}}
	}
	return o.mapTasks(tasks), nil
}

// FollowTrace records one benchmark's Figure 2/3 trace through a
// stepped session, calling emit with each measured interval as it is
// produced — the mcdtrace -follow mode, and each task of TraceMany. It
// is cache-aware: the trace is addressed by its full spec (which, unlike
// a registry key, carries RecordIntervals), and a stored trace replays
// its recorded intervals through emit instead of simulating, so the
// rows a follower prints are identical either way.
func (o Options) FollowTrace(name string, emit func(stats.Interval)) (stats.Result, error) {
	b, ok := workload.Lookup(name)
	if !ok {
		return stats.Result{}, fmt.Errorf("bench: unknown benchmark %q", name)
	}
	spec, err := o.traceSpec(b)
	if err != nil {
		return stats.Result{}, err
	}
	key, _ := resultcache.SpecKey(spec)
	res, hit, err := o.Cache.DoResult(key, func() (stats.Result, error) {
		ses, err := sim.Open(spec)
		if err != nil {
			return stats.Result{}, err
		}
		if emit != nil {
			ses.Observe(emit)
		}
		ses.Step(-1)
		return ses.Close(), nil
	})
	if err != nil {
		return stats.Result{}, err
	}
	if hit && emit != nil {
		for _, iv := range res.Intervals {
			emit(iv)
		}
	}
	return res, nil
}

// FigureCSVHeader is the column header line FigureCSV emits.
func FigureCSVHeader() string { return "instructions,queue_util,util_diff_pct,freq_ghz,ipc\n" }

// FigureCSVRow renders row i of a Figure 2/3 trace; prev is the
// previous row's queue utilization (ignored for the first row). It is
// the incremental form FigureCSV (and mcdtrace -follow) is built from,
// so streamed and post-hoc traces are byte-identical row for row.
func FigureCSVRow(i int, iv stats.Interval, prev float64, d clock.Domain) string {
	diff := 0.0
	if i > 0 && prev != 0 {
		diff = (iv.QueueUtil[d] - prev) / prev * 100
	}
	return fmt.Sprintf("%d,%.4f,%.2f,%.4f,%.4f\n",
		(uint64(i)+1)*iv.Instructions, iv.QueueUtil[d], diff, iv.FreqMHz[d]/1000, iv.IPC)
}

// FigureCSV renders the interval trace of one domain as CSV with the
// series of Figures 2 and 3: instruction count, queue utilization (the
// paper's per-instruction accumulation), utilization difference in
// percent (Figure 2a), and the domain frequency in GHz (Figures 2b/3b).
func FigureCSV(res stats.Result, d clock.Domain) string {
	var b strings.Builder
	b.WriteString(FigureCSVHeader())
	prev := 0.0
	for i, iv := range res.Intervals {
		b.WriteString(FigureCSVRow(i, iv, prev, d))
		prev = iv.QueueUtil[d]
	}
	return b.String()
}
