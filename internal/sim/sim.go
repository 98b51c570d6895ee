// Package sim provides the run orchestration shared by the control
// algorithms, the experiment harness and the command-line tools: it
// instantiates a workload generator and a pipeline core for one
// configuration and returns the measurements.
package sim

import (
	"fmt"

	"mcd/internal/clock"
	"mcd/internal/pipeline"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// Fidelity tiers. Exact is the default cycle-by-cycle engine; sampled
// simulates every Nth control interval in detail and fast-forwards the
// rest with functional warming and an analytical time/energy model (see
// pipeline's sampled tier and DESIGN.md "Fidelity tiers"). Exact results
// are byte-identical with or without this field existing; sampled results
// carry error bounds and live under distinct result-cache keys.
const (
	FidelityExact   = "exact"
	FidelitySampled = "sampled"

	// DefaultSampleEvery is the detailed-interval cadence used when a
	// sampled spec leaves SampleEvery at zero.
	DefaultSampleEvery = 10
)

// ParseFidelity normalizes a fidelity name ("" means exact) or reports
// the valid set, mirroring the controller registry's error style.
func ParseFidelity(s string) (string, error) {
	switch s {
	case "", FidelityExact:
		return FidelityExact, nil
	case FidelitySampled:
		return FidelitySampled, nil
	}
	return "", fmt.Errorf("unknown fidelity %q (valid: %s, %s)", s, FidelityExact, FidelitySampled)
}

// Spec describes one simulation run.
type Spec struct {
	Config  pipeline.Config
	Profile workload.Profile
	Window  uint64
	// Warmup instructions run before the measured window (caches and
	// predictors train; no measurements). Zero means no warmup.
	Warmup uint64
	// IntervalLength overrides the controller sampling period (paper:
	// 10,000 instructions). Scaled-down windows use proportionally
	// shorter intervals so a run spans a paper-like number of control
	// intervals; see DESIGN.md ("time-scale compression").
	IntervalLength uint64
	Controller     pipeline.Controller
	// InitialFreqMHz pins starting frequencies (zero entries = max).
	InitialFreqMHz [clock.NumControllable]float64
	// RecordIntervals keeps per-interval records on the Result.
	RecordIntervals bool
	// Name labels the Result's Config field.
	Name string
	// Fidelity selects the simulation tier: "" or FidelityExact for the
	// exact engine, FidelitySampled for interval sampling with
	// checkpointed warmup reuse.
	Fidelity string
	// SampleEvery is the sampled tier's detailed-interval cadence (every
	// Nth interval in detail); zero uses DefaultSampleEvery. Ignored at
	// exact fidelity.
	SampleEvery int
}

// Sampled reports whether the spec runs at sampled fidelity.
func (s Spec) Sampled() bool { return s.Fidelity == FidelitySampled }

// EffectiveSampleEvery returns the pipeline-level sampling cadence the
// spec resolves to: 0 at exact fidelity, the defaulted cadence otherwise.
func (s Spec) EffectiveSampleEvery() int {
	if !s.Sampled() {
		return 0
	}
	if s.SampleEvery <= 0 {
		return DefaultSampleEvery
	}
	return s.SampleEvery
}

// Run executes the spec: a session opened, drained and closed. The
// session API is the run loop, so one-shot and stepped execution are
// byte-identical by construction.
func Run(s Spec) stats.Result {
	ses := open(s)
	ses.Step(-1)
	return ses.Close()
}

// SynchronousSpec returns the spec of the conventional fully synchronous
// processor (one clock, no MCD overheads) with the global clock scaled
// to freqMHz — conventional global voltage/frequency scaling.
func SynchronousSpec(cfg pipeline.Config, prof workload.Profile, window, warmup uint64, freqMHz float64, name string) Spec {
	cfg.SingleClock = true
	var init [clock.NumControllable]float64
	for d := range init {
		init[d] = freqMHz
	}
	return Spec{
		Config: cfg, Profile: prof, Window: window, Warmup: warmup,
		InitialFreqMHz: init, Name: name,
	}
}
