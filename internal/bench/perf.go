package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"mcd/internal/core"
	"mcd/internal/pipeline"
	"mcd/internal/sim"
	"mcd/internal/workload"
)

// The perf suite pins the within-run hot path (PR 5): one cache-miss
// unit of work end to end (single_run) and the steady-state cycle engine
// alone (hot_loop). cmd/mcdbench -benchjson emits the report; the
// committed BENCH_5.json is the baseline CI gates against, with the
// tolerances encoded in CheckAgainst.

// PerfMeasurement is one benchmark's measured cost.
type PerfMeasurement struct {
	N           int     `json:"n"`             // iterations measured
	NsPerOp     float64 `json:"ns_per_op"`     // wall time per op (noisy across machines)
	AllocsPerOp uint64  `json:"allocs_per_op"` // heap allocations per op (exact, machine-independent)
	BytesPerOp  uint64  `json:"bytes_per_op"`
	SimMIPS     float64 `json:"sim_mips"` // simulated instructions per wall-clock second, in millions
}

// PerfReport is the -benchjson document (and BENCH_5.json's schema).
type PerfReport struct {
	Schema     string                     `json:"schema"`
	GoVersion  string                     `json:"go_version"`
	GOOS       string                     `json:"goos"`
	GOARCH     string                     `json:"goarch"`
	Benchmarks map[string]PerfMeasurement `json:"benchmarks"`
}

// PerfSchema versions the report; bump when measurements change meaning.
const PerfSchema = "mcd-bench-v1"

// Hot-path measurement scale: the QuickOptions-shaped single run every
// table cell, sweep point and streamed session bottoms out in.
const (
	perfBench    = "epic"
	perfWindow   = 120_000
	perfWarmup   = 60_000
	perfInterval = 500
)

func perfSpec() sim.Spec {
	b, ok := workload.Lookup(perfBench)
	if !ok {
		panic("bench: perf benchmark missing from catalog")
	}
	cfg := pipeline.DefaultConfig()
	cfg.SlewNsPerMHz = SlewNsPerMHz
	return sim.Spec{
		Config:         cfg,
		Profile:        b.Profile,
		Window:         perfWindow,
		Warmup:         perfWarmup,
		IntervalLength: perfInterval,
		Controller:     core.NewAttackDecay(core.DefaultParams()),
		Name:           "attack-decay",
	}
}

func measurement(r testing.BenchmarkResult, instrPerOp float64) PerfMeasurement {
	m := PerfMeasurement{
		N:           r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: uint64(r.AllocsPerOp()),
		BytesPerOp:  uint64(r.AllocedBytesPerOp()),
	}
	if m.NsPerOp > 0 {
		m.SimMIPS = instrPerOp * 1e3 / m.NsPerOp
	}
	return m
}

// MeasurePerf runs the two hot-path benchmarks and assembles the report.
//
//   - single_run: one full sim.Run per op — session open (pooled core),
//     drain, close. Simulated work per op is Warmup+Window instructions.
//   - hot_loop: one steady-state control interval per op on a reused
//     core (Core.StepIntervals(1) past warmup); per-op allocations must
//     be exactly zero, the invariant TestStepIntervalsZeroAllocs pins.
//
// Restarts of the exhausted hot-loop run happen with the timer stopped,
// so they contribute neither time nor allocations.
func MeasurePerf() PerfReport {
	singles := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec := perfSpec() // fresh controller: Attack/Decay is stateful
			if res := sim.Run(spec); res.Instructions != perfWindow {
				b.Fatalf("run retired %d measured instructions, want %d", res.Instructions, perfWindow)
			}
		}
	})

	sampled := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec := perfSpec()
			spec.Fidelity = sim.FidelitySampled
			if res := sim.Run(spec); res.Instructions != perfWindow {
				b.Fatalf("sampled run retired %d measured instructions, want %d", res.Instructions, perfWindow)
			}
		}
	})

	hot := testing.Benchmark(func(b *testing.B) {
		spec := perfSpec()
		gen := spec.Profile.NewGenerator(perfWarmup + perfWindow)
		c := pipeline.New(spec.Config, gen)
		opts := pipeline.RunOptions{
			Window:         perfWindow,
			Warmup:         perfWarmup,
			IntervalLength: perfInterval,
			Controller:     spec.Controller,
		}
		warm := func() {
			c.Start(opts)
			c.StepIntervals(int(perfWarmup/perfInterval) + 8)
		}
		warm()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !c.StepIntervals(1) {
				b.StopTimer()
				gen.Reset()
				opts.Controller = core.NewAttackDecay(core.DefaultParams())
				c.Reset(spec.Config, gen)
				warm()
				b.StartTimer()
			}
		}
	})

	return PerfReport{
		Schema:    PerfSchema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchmarks: map[string]PerfMeasurement{
			"single_run": measurement(singles, perfWarmup+perfWindow),
			// sampled_run is the same unit of work at sampled fidelity with
			// warmup reuse warm (the steady state of a sampled sweep); its
			// sim-MIPS over single_run's is the fidelity tier's speedup.
			"sampled_run": measurement(sampled, perfWarmup+perfWindow),
			"hot_loop":    measurement(hot, perfInterval),
		},
	}
}

// Encode renders the report as indented JSON with a trailing newline —
// the exact bytes BENCH_5.json holds.
func (r PerfReport) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodePerfReport parses an Encode document.
func DecodePerfReport(data []byte) (PerfReport, error) {
	var r PerfReport
	if err := json.Unmarshal(data, &r); err != nil {
		return PerfReport{}, fmt.Errorf("bench: decoding perf baseline: %w", err)
	}
	if r.Schema != PerfSchema {
		return PerfReport{}, fmt.Errorf("bench: perf baseline schema %q, want %q", r.Schema, PerfSchema)
	}
	return r, nil
}

// Alloc slack for single_run: a GC cycle may clear the session core pool
// mid-benchmark, forcing one ~70-allocation reconstruction that amortizes
// over the iterations. The hot loop gets no slack — its steady state
// allocates nothing, exactly.
const singleRunAllocSlack = 64

// nsTolerance is the generous wall-clock regression factor: CI machines
// are noisy and heterogeneous, so only a blowout fails; the alloc counts
// carry the exact gate.
const nsTolerance = 4.0

// CheckAgainst compares the report with a committed baseline and returns
// human-readable regressions (empty: gate passes). Benchmarks present
// only on one side are ignored, so the suite can grow without breaking
// old baselines.
func (r PerfReport) CheckAgainst(base PerfReport) []string {
	var fails []string
	for name, b := range base.Benchmarks {
		n, ok := r.Benchmarks[name]
		if !ok {
			continue
		}
		slack := uint64(0)
		if name == "single_run" {
			slack = singleRunAllocSlack
		}
		if n.AllocsPerOp > b.AllocsPerOp+slack {
			fails = append(fails, fmt.Sprintf(
				"%s: %d allocs/op exceeds baseline %d (+%d slack) — the hot loop regressed",
				name, n.AllocsPerOp, b.AllocsPerOp, slack))
		}
		if b.NsPerOp > 0 && n.NsPerOp > b.NsPerOp*nsTolerance {
			fails = append(fails, fmt.Sprintf(
				"%s: %.0f ns/op is over %.0f× the baseline %.0f ns/op",
				name, n.NsPerOp, nsTolerance, b.NsPerOp))
		}
	}
	return fails
}
