package bench

import (
	"fmt"
	"strings"
	"time"

	"mcd/internal/sim"
	"mcd/internal/stats"
)

// Fidelity validation: run the Table 6 grid twice — once exact, once
// sampled — on identical options, time both, and compare the results the
// sampled tier is supposed to approximate. The errors reported here are
// model *bias* (sampled vs ground truth); the error-bound fields on each
// sampled Result (CPIErr95/EPIErr95) bound sampling *noise*. CI runs this
// at quick scale with a speedup floor and an error ceiling, so a model
// regression or a lost speedup fails the build.

// FidelityCell is one (benchmark, configuration) comparison between the
// exact and sampled tiers.
type FidelityCell struct {
	Benchmark string  `json:"benchmark"`
	Config    string  `json:"config"`
	CPIErr    float64 `json:"cpi_err"` // |sampled-exact|/exact, relative
	EPIErr    float64 `json:"epi_err"`
}

// FidelityReport is what mcdbench -validate-fidelity prints (and the CI
// step parses via its exit status).
type FidelityReport struct {
	SampleEvery    int            `json:"sample_every"`
	ExactSeconds   float64        `json:"exact_seconds"`
	SampledSeconds float64        `json:"sampled_seconds"`
	Speedup        float64        `json:"speedup"`
	MaxCPIErr      float64        `json:"max_cpi_err"`
	MaxEPIErr      float64        `json:"max_epi_err"`
	MeanCPIErr     float64        `json:"mean_cpi_err"`
	MeanEPIErr     float64        `json:"mean_epi_err"`
	Cells          []FidelityCell `json:"cells"`
	// Table 6 summary rows under each tier, for eyeballing how the
	// headline numbers move.
	ExactTable6   string `json:"exact_table6"`
	SampledTable6 string `json:"sampled_table6"`
}

// relErr is the relative error of got vs want, guarding a zero baseline.
func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	e := got/want - 1
	if e < 0 {
		e = -e
	}
	return e
}

// ValidateFidelity runs the comparison grid at both tiers and reports
// per-cell CPI/EPI errors and the wall-clock speedup. The error set
// covers the directly simulated configurations (sync, baseline MCD,
// Attack/Decay): the compound cells (off-line schedules, Global(·)
// matches) re-run their searches under each tier, so their differences
// conflate search divergence with model bias and are reported only
// through the Table 6 summaries. The options' Cache and Exec must be nil
// — a cache hit would time a map lookup, not a simulation. Each grid
// still shares its compound searches' repeated sub-runs within a row
// (runAllOn's row stores), as every grid does, so the speedup compares
// the two grids' wall times, not the cost of one simulation at each
// tier: the exact grid saves more time by the sharing than the sampled
// one, which lowers the ratio a little.
func (o Options) ValidateFidelity() FidelityReport {
	if o.Cache != nil || o.Exec != nil {
		panic("bench: ValidateFidelity needs Cache and Exec unset (timing would be meaningless)")
	}
	exact := o
	exact.Fidelity = sim.FidelityExact
	exact.SampleEvery = 0
	sampled := o
	sampled.Fidelity = sim.FidelitySampled

	t0 := time.Now()
	ecs := exact.RunAll()
	t1 := time.Now()
	scs := sampled.RunAll()
	t2 := time.Now()

	rep := FidelityReport{
		SampleEvery:    sim.Spec{Fidelity: sampled.Fidelity, SampleEvery: sampled.SampleEvery}.EffectiveSampleEvery(),
		ExactSeconds:   t1.Sub(t0).Seconds(),
		SampledSeconds: t2.Sub(t1).Seconds(),
		ExactTable6:    Table6(ecs),
		SampledTable6:  Table6(scs),
	}
	if rep.SampledSeconds > 0 {
		rep.Speedup = rep.ExactSeconds / rep.SampledSeconds
	}

	pick := []struct {
		name string
		get  func(Comparison) stats.Result
	}{
		{"sync", func(c Comparison) stats.Result { return c.Sync }},
		{"mcd-base", func(c Comparison) stats.Result { return c.MCDBase }},
		{"attack-decay", func(c Comparison) stats.Result { return c.AD }},
	}
	for i := range ecs {
		if i >= len(scs) {
			break
		}
		for _, p := range pick {
			e, s := p.get(ecs[i]), p.get(scs[i])
			cell := FidelityCell{
				Benchmark: ecs[i].Bench.Name,
				Config:    p.name,
				CPIErr:    relErr(s.CPI(), e.CPI()),
				EPIErr:    relErr(s.EPI(), e.EPI()),
			}
			rep.Cells = append(rep.Cells, cell)
			if cell.CPIErr > rep.MaxCPIErr {
				rep.MaxCPIErr = cell.CPIErr
			}
			if cell.EPIErr > rep.MaxEPIErr {
				rep.MaxEPIErr = cell.EPIErr
			}
			rep.MeanCPIErr += cell.CPIErr
			rep.MeanEPIErr += cell.EPIErr
		}
	}
	if n := float64(len(rep.Cells)); n > 0 {
		rep.MeanCPIErr /= n
		rep.MeanEPIErr /= n
	}
	return rep
}

// Check compares the report with the validation thresholds, returning
// human-readable failures (empty: the fidelity gate passes). The mean
// bound (maxMeanErr) is the headline accuracy contract — sweep-level
// conclusions average many cells — while the per-cell bound (maxCellErr)
// catches a single cell going badly wrong without demanding every
// benchmark×controller pairing beat the mean.
func (r FidelityReport) Check(maxMeanErr, maxCellErr, minSpeedup float64) []string {
	var fails []string
	if r.MeanCPIErr > maxMeanErr {
		fails = append(fails, fmt.Sprintf(
			"mean CPI error %.2f%% exceeds the %.2f%% bound", r.MeanCPIErr*100, maxMeanErr*100))
	}
	if r.MeanEPIErr > maxMeanErr {
		fails = append(fails, fmt.Sprintf(
			"mean EPI error %.2f%% exceeds the %.2f%% bound", r.MeanEPIErr*100, maxMeanErr*100))
	}
	if r.MaxCPIErr > maxCellErr {
		fails = append(fails, fmt.Sprintf(
			"max CPI error %.2f%% exceeds the %.2f%% per-cell bound", r.MaxCPIErr*100, maxCellErr*100))
	}
	if r.MaxEPIErr > maxCellErr {
		fails = append(fails, fmt.Sprintf(
			"max EPI error %.2f%% exceeds the %.2f%% per-cell bound", r.MaxEPIErr*100, maxCellErr*100))
	}
	if minSpeedup > 0 && r.Speedup < minSpeedup {
		fails = append(fails, fmt.Sprintf(
			"speedup %.1f× is under the %.1f× floor (exact %.2fs, sampled %.2fs)",
			r.Speedup, minSpeedup, r.ExactSeconds, r.SampledSeconds))
	}
	return fails
}

// Format renders the report for the terminal.
func (r FidelityReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fidelity validation: exact vs sampled (every %d intervals detailed)\n", r.SampleEvery)
	fmt.Fprintf(&b, "  wall clock: exact %.2fs, sampled %.2fs — %.1f× speedup\n",
		r.ExactSeconds, r.SampledSeconds, r.Speedup)
	fmt.Fprintf(&b, "  CPI error:  max %.2f%%, mean %.2f%%\n", r.MaxCPIErr*100, r.MeanCPIErr*100)
	fmt.Fprintf(&b, "  EPI error:  max %.2f%%, mean %.2f%%\n", r.MaxEPIErr*100, r.MeanEPIErr*100)
	fmt.Fprintf(&b, "\n%-12s %-14s %10s %10s\n", "benchmark", "config", "CPI err", "EPI err")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "%-12s %-14s %9.2f%% %9.2f%%\n",
			c.Benchmark, c.Config, c.CPIErr*100, c.EPIErr*100)
	}
	b.WriteString("\n--- Table 6, exact ---\n")
	b.WriteString(r.ExactTable6)
	b.WriteString("\n--- Table 6, sampled ---\n")
	b.WriteString(r.SampledTable6)
	return b.String()
}
