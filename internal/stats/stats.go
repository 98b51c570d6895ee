// Package stats defines the measurement records produced by simulation
// runs and the derived metrics the paper reports: CPI, energy per
// instruction, energy-delay product, and the comparison metrics
// (performance degradation, energy savings, EDP improvement, and the
// power-savings to performance-degradation ratio).
package stats

import "mcd/internal/clock"

// Interval is one control-interval record (the paper samples every 10,000
// instructions). QueueUtil follows the paper's metric: queue occupancy is
// accumulated every domain cycle and divided by the interval's instruction
// count, so values can exceed the queue capacity when the interval takes
// more cycles than instructions.
type Interval struct {
	Index        int
	Instructions uint64
	EndPS        float64
	QueueUtil    [clock.NumControllable]float64
	QueueAvg     [clock.NumControllable]float64 // mean occupancy per domain cycle
	FreqMHz      [clock.NumControllable]float64
	IPC          float64 // instructions per 1 GHz reference cycle
	// Estimated marks intervals the sampled fidelity tier fast-forwarded
	// analytically instead of simulating cycle by cycle; their time,
	// occupancy and IPC are model extrapolations from the nearest detailed
	// interval. Always false at exact fidelity (and omitted from JSON, so
	// exact results stay byte-identical).
	Estimated bool `json:",omitempty"`
}

// Result is the outcome of one simulation run.
type Result struct {
	Benchmark string
	Config    string

	Instructions uint64
	TimePS       float64
	EnergyPJ     float64

	DomainEnergyPJ [clock.NumDomains]float64
	AvgFreqMHz     [clock.NumControllable]float64
	BranchAccuracy float64
	L1DMissRate    float64
	L2MissRate     float64
	Transitions    uint64 // PLL retarget count across domains

	// Sampled-fidelity error accounting (zero, and omitted from JSON, at
	// exact fidelity): the number of measured intervals simulated in
	// detail vs fast-forwarded, and 95% confidence half-widths on CPI and
	// EPI relative to their means, derived from the spread of the
	// per-detailed-interval samples. They bound the sampling noise, not
	// the analytical model's bias; mcdbench -validate-fidelity measures
	// the latter against exact runs.
	DetailedIntervals int     `json:",omitempty"`
	SampledIntervals  int     `json:",omitempty"`
	CPIErr95          float64 `json:",omitempty"`
	EPIErr95          float64 `json:",omitempty"`

	Intervals []Interval // populated when interval tracing is enabled
}

// CPI returns cycles per instruction at the 1 GHz reference clock (1 cycle
// = 1000 ps), the normalization the paper uses for cross-configuration
// performance comparisons.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return r.TimePS / 1000 / float64(r.Instructions)
}

// EPI returns energy per instruction in picojoules.
func (r Result) EPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return r.EnergyPJ / float64(r.Instructions)
}

// EDP returns the energy-delay product (pJ·ps); meaningful only relative
// to another run of the same workload.
func (r Result) EDP() float64 { return r.EnergyPJ * r.TimePS }

// PowerW returns average power in watts (pJ/ps ≡ W).
func (r Result) PowerW() float64 {
	if r.TimePS == 0 {
		return 0
	}
	return r.EnergyPJ / r.TimePS
}

// Progress is the incrementally finalized view of an in-progress run:
// the same aggregates a full Result reports, readable at any control
// interval boundary while the simulation is still executing. The
// session API's snapshots (sim.Session.Snapshot) and the serving
// layer's interval streams are built from it. Aggregates cover the
// measured region only — during warmup everything but FreqMHz is zero.
type Progress struct {
	// Intervals counts the measured control intervals emitted so far.
	Intervals int `json:"intervals"`
	// Instructions is the number of measured instructions retired.
	Instructions uint64  `json:"instructions"`
	TimePS       float64 `json:"time_ps"`
	EnergyPJ     float64 `json:"energy_pj"`
	// FreqMHz is each domain's current regulator target.
	FreqMHz [clock.NumControllable]float64 `json:"freq_mhz"`
	// IPC is the last measured interval's IPC (zero before the first).
	IPC float64 `json:"ipc,omitempty"`
	// Done reports that the run cannot advance further.
	Done bool `json:"done"`
	// Stopped reports that an early-termination predicate fired.
	Stopped bool `json:"stopped,omitempty"`
}

// CPI returns the running cycles per instruction at the 1 GHz reference
// clock, the same normalization Result.CPI uses.
func (p Progress) CPI() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return p.TimePS / 1000 / float64(p.Instructions)
}

// EPI returns the running energy per instruction in picojoules.
func (p Progress) EPI() float64 {
	if p.Instructions == 0 {
		return 0
	}
	return p.EnergyPJ / float64(p.Instructions)
}

// PowerW returns the running average power in watts.
func (p Progress) PowerW() float64 {
	if p.TimePS == 0 {
		return 0
	}
	return p.EnergyPJ / p.TimePS
}

// Comparison holds the paper's four headline metrics for one run measured
// against a baseline run of the same workload.
type Comparison struct {
	Benchmark       string
	PerfDegradation float64 // (T − T₀)/T₀
	EnergySavings   float64 // 1 − E/E₀
	EDPImprovement  float64 // 1 − (E·T)/(E₀·T₀)
	PowerSavings    float64 // 1 − (E/T)/(E₀/T₀)
}

// Compare measures r against base.
func Compare(r, base Result) Comparison {
	return Comparison{
		Benchmark:       r.Benchmark,
		PerfDegradation: r.TimePS/base.TimePS - 1,
		EnergySavings:   1 - r.EnergyPJ/base.EnergyPJ,
		EDPImprovement:  1 - r.EDP()/base.EDP(),
		PowerSavings:    1 - r.PowerW()/base.PowerW(),
	}
}

// Summary aggregates comparisons over a benchmark suite.
type Summary struct {
	N                 int
	PerfDegradation   float64 // arithmetic means
	EnergySavings     float64
	EDPImprovement    float64
	PowerSavings      float64
	PowerPerfRatio    float64 // mean power savings / mean perf degradation
	MeanPerBenchRatio float64 // mean of per-benchmark power/perf ratios
}

// Summarize averages the comparisons the way the paper reports suite-wide
// numbers. The power/performance ratio is reported both as the ratio of
// the averages and as the average of per-benchmark ratios (the paper is
// ambiguous between the two).
func Summarize(cs []Comparison) Summary {
	var s Summary
	if len(cs) == 0 {
		return s
	}
	var ratioSum float64
	var ratioN int
	for _, c := range cs {
		s.PerfDegradation += c.PerfDegradation
		s.EnergySavings += c.EnergySavings
		s.EDPImprovement += c.EDPImprovement
		s.PowerSavings += c.PowerSavings
		if c.PerfDegradation > 0.001 {
			ratioSum += c.PowerSavings / c.PerfDegradation
			ratioN++
		}
	}
	n := float64(len(cs))
	s.N = len(cs)
	s.PerfDegradation /= n
	s.EnergySavings /= n
	s.EDPImprovement /= n
	s.PowerSavings /= n
	if s.PerfDegradation != 0 {
		s.PowerPerfRatio = s.PowerSavings / s.PerfDegradation
	}
	if ratioN > 0 {
		s.MeanPerBenchRatio = ratioSum / float64(ratioN)
	}
	return s
}
