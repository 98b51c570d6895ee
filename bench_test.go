// Benchmark harness: one testing.B per table and figure of the paper's
// evaluation. Each benchmark regenerates its experiment at a reduced scale
// (QuickOptions: 10 benchmarks, 120k-instruction windows) and reports the
// headline metrics via b.ReportMetric, printing the full rows once in
// verbose mode. cmd/mcdbench runs the full-scale versions.
package mcd_test

import (
	"sync"
	"testing"

	"mcd/internal/bench"
	"mcd/internal/clock"
	"mcd/internal/hw"
	"mcd/internal/sim"
)

// reportSimMIPS attaches simulated-instruction throughput to a benchmark
// that ran real simulations: the delta of the process-wide retired
// counter over the measured region divided by wall time. Cache hits and
// memoized matrices simulate nothing, so a zero delta reports nothing
// rather than a misleading number.
func reportSimMIPS(b *testing.B, before uint64) {
	delta := sim.SimulatedInstructions() - before
	if s := b.Elapsed().Seconds(); delta > 0 && s > 0 {
		b.ReportMetric(float64(delta)/1e6/s, "sim-MIPS")
	}
}

// comparisons are expensive; share one matrix across the Table 6, Figure 4
// and headline benchmarks.
var (
	compOnce sync.Once
	compRows []bench.Comparison
)

func comparisons() []bench.Comparison {
	compOnce.Do(func() {
		compRows = bench.QuickOptions().RunAll()
	})
	return compRows
}

func BenchmarkTable1Config(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = bench.Table1()
	}
	if len(s) == 0 {
		b.Fatal("empty table")
	}
}

func BenchmarkTable2Params(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.Table2()
	}
}

func BenchmarkTable3Gates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.Table3()
	}
	b.ReportMetric(float64(hw.GatesPerDomain()), "gates/domain")
	b.ReportMetric(float64(hw.TotalGates(4)), "gates-total")
}

func BenchmarkTable4Arch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.Table4()
	}
}

func BenchmarkTable5Benchmarks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.Table5()
	}
}

func BenchmarkTable6Comparison(b *testing.B) {
	cs := comparisons()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Table6(cs)
	}
	b.StopTimer()
	ad := summaryOf(cs, "ad")
	b.ReportMetric(ad.PerfDegradation*100, "AD-perfdeg-%")
	b.ReportMetric(ad.EnergySavings*100, "AD-energysav-%")
	b.ReportMetric(ad.EDPImprovement*100, "AD-edp-%")
	if testing.Verbose() {
		b.Log("\n" + out)
	}
}

func summaryOf(cs []bench.Comparison, which string) (s struct {
	PerfDegradation, EnergySavings, EDPImprovement float64
}) {
	n := float64(len(cs))
	for _, c := range cs {
		var r = c.AD
		if which == "dyn1" {
			r = c.Dyn1
		}
		s.PerfDegradation += (r.TimePS/c.MCDBase.TimePS - 1) / n
		s.EnergySavings += (1 - r.EnergyPJ/c.MCDBase.EnergyPJ) / n
		s.EDPImprovement += (1 - r.EDP()/c.MCDBase.EDP()) / n
	}
	return s
}

func BenchmarkFig4PerApplication(b *testing.B) {
	cs := comparisons()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Fig4(cs)
	}
	b.StopTimer()
	if testing.Verbose() {
		b.Log("\n" + out)
	}
}

func BenchmarkHeadline(b *testing.B) {
	cs := comparisons()
	b.ResetTimer()
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.Headline(cs)
	}
	b.StopTimer()
	if testing.Verbose() {
		b.Log("\n" + out)
	}
}

func BenchmarkFig2LoadStoreTrace(b *testing.B) {
	to := bench.QuickOptions()
	to.Window = 150_000
	to.Warmup = 20_000
	before := sim.SimulatedInstructions()
	var csv string
	for i := 0; i < b.N; i++ {
		res, err := to.TraceMany([]string{"epic.decode"})
		if err != nil {
			b.Fatal(err)
		}
		csv = bench.FigureCSV(res[0], clock.LoadStore)
	}
	if len(csv) == 0 {
		b.Fatal("empty trace")
	}
	reportSimMIPS(b, before)
}

func BenchmarkFig3FloatingPointTrace(b *testing.B) {
	to := bench.QuickOptions()
	to.Window = 150_000
	to.Warmup = 20_000
	before := sim.SimulatedInstructions()
	var res struct{ avgFP float64 }
	for i := 0; i < b.N; i++ {
		r, err := to.TraceMany([]string{"epic.decode"})
		if err != nil {
			b.Fatal(err)
		}
		res.avgFP = r[0].AvgFreqMHz[clock.FloatingPoint]
	}
	b.ReportMetric(res.avgFP, "FP-avg-MHz")
	reportSimMIPS(b, before)
}

// sweepBench runs one paper figure (bench.PaperSweeps) over values, the
// SweepController call a sweep-* experiment makes.
func sweepBench(b *testing.B, fig string, values []float64, metric string) {
	b.Helper()
	o := bench.QuickOptions()
	o.Benchmarks = []string{"adpcm", "gzip", "power", "mcf"}
	row := bench.PaperSweeps[fig]
	before := sim.SimulatedInstructions()
	var pts []bench.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		if pts, err = o.SweepController("attack-decay", row.Param, values, row.Fixed); err != nil {
			b.Fatal(err)
		}
	}
	if len(pts) == 0 {
		b.Fatal("no sweep points")
	}
	best := pts[0].Summary.EDPImprovement
	for _, p := range pts {
		if p.Summary.EDPImprovement > best {
			best = p.Summary.EDPImprovement
		}
	}
	b.ReportMetric(best*100, metric)
	reportSimMIPS(b, before)
}

func BenchmarkFig5TargetSweep(b *testing.B) {
	sweepBench(b, "target", []float64{0.02, 0.06, 0.10}, "best-EDP-%")
}

func BenchmarkFig6aDecaySweep(b *testing.B) {
	sweepBench(b, "decay", []float64{0.0005, 0.0075, 0.02}, "best-EDP-%")
}

func BenchmarkFig6bReactionSweep(b *testing.B) {
	sweepBench(b, "reaction", []float64{0.01, 0.06, 0.155}, "best-EDP-%")
}

func BenchmarkFig6cDeviationSweep(b *testing.B) {
	sweepBench(b, "deviation", []float64{0.005, 0.0175, 0.025}, "best-EDP-%")
}
