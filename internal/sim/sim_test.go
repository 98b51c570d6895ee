package sim

import (
	"testing"

	"mcd/internal/clock"
	"mcd/internal/pipeline"
	"mcd/internal/workload"
)

func profile() workload.Profile {
	b, ok := workload.Lookup("adpcm")
	if !ok {
		panic("adpcm missing")
	}
	return b.Profile
}

func TestRunHonorsSpec(t *testing.T) {
	res := Run(Spec{
		Config:  pipeline.DefaultConfig(),
		Profile: profile(),
		Window:  30_000,
		Warmup:  10_000,
		Name:    "spec-test",
	})
	if res.Instructions != 30_000 {
		t.Errorf("instructions = %d, want 30000", res.Instructions)
	}
	if res.Config != "spec-test" {
		t.Errorf("config label = %q", res.Config)
	}
	if res.Benchmark != "adpcm" {
		t.Errorf("benchmark = %q", res.Benchmark)
	}
}

func TestSynchronousStripsMCDOverheads(t *testing.T) {
	spec := SynchronousSpec(pipeline.DefaultConfig(), profile(), 1, 0, 1000, "sync")
	if !spec.Config.SingleClock {
		t.Fatal("SynchronousSpec must set SingleClock")
	}
}

func TestRunSynchronousAtScalesFrequency(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	fast := Run(SynchronousSpec(cfg, profile(), 30_000, 0, 1000, "fast"))
	slow := Run(SynchronousSpec(cfg, profile(), 30_000, 0, 500, "slow"))
	if slow.TimePS <= fast.TimePS {
		t.Errorf("500 MHz run (%v ps) not slower than 1 GHz run (%v ps)", slow.TimePS, fast.TimePS)
	}
	// Compute-bound code at half frequency should take nearly twice as
	// long (memory latency is fixed, so slightly less than 2x).
	ratio := slow.TimePS / fast.TimePS
	if ratio < 1.5 || ratio > 2.1 {
		t.Errorf("slowdown ratio = %v, want ~2x for compute-bound code", ratio)
	}
	// And it must save energy (V² scaling).
	if slow.EnergyPJ >= fast.EnergyPJ {
		t.Error("global scaling saved no energy")
	}
	for d := 0; d < clock.NumControllable; d++ {
		if f := slow.AvgFreqMHz[d]; f > 510 || f < 490 {
			t.Errorf("domain %d avg freq %v, want ~500", d, f)
		}
	}
}
