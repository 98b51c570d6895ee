package sim_test

import (
	"testing"

	"mcd/internal/core"
	"mcd/internal/pipeline"
	"mcd/internal/sim"
	"mcd/internal/workload"
)

// TestSampledShortIntervalTracksExact runs the sampled tier at an
// interval shorter than the retire width, where one front-end cycle can
// cross two interval boundaries: the fast-forward must not warm through
// the rest of the stream, so time accrues and CPI stays near exact.
func TestSampledShortIntervalTracksExact(t *testing.T) {
	for _, name := range []string{"adpcm", "mcf", "epic.decode"} {
		b, ok := workload.Lookup(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		cfg := pipeline.DefaultConfig()
		cfg.SlewNsPerMHz = 4.91 // the compressed-scale slew run requests default to
		spec := sim.Spec{
			Config:         cfg,
			Profile:        b.Profile,
			Window:         20_000,
			Warmup:         10_000,
			IntervalLength: 4,
		}
		spec.Controller = core.NewAttackDecay(core.DefaultParams())
		exact := sim.Run(spec)
		spec.Controller = core.NewAttackDecay(core.DefaultParams())
		spec.Fidelity = sim.FidelitySampled
		sampled := sim.Run(spec)
		if sampled.TimePS <= 0 {
			t.Fatalf("%s: sampled run accrued no time (%v ps)", name, sampled.TimePS)
		}
		if r := sampled.CPI() / exact.CPI(); r < 0.9 || r > 1.1 {
			t.Errorf("%s: sampled CPI %.4f vs exact %.4f (ratio %.3f), want within 10%%", name, sampled.CPI(), exact.CPI(), r)
		}
	}
}
