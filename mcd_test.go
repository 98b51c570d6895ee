package mcd_test

import (
	"testing"

	"mcd"
)

// The facade is exercised end to end: an Attack/Decay run on a real
// catalog benchmark must save energy against the MCD baseline at a small
// performance cost.
func TestPublicAPIEndToEnd(t *testing.T) {
	bench, ok := mcd.LookupBenchmark("g721")
	if !ok {
		t.Fatal("g721 missing from catalog")
	}
	cfg := mcd.DefaultConfig()
	cfg.SlewNsPerMHz = 4.91
	spec := mcd.Spec{
		Config:         cfg,
		Profile:        bench.Profile,
		Window:         200_000,
		Warmup:         100_000,
		IntervalLength: 1000,
	}
	base := mcd.Run(spec)
	spec.Controller = mcd.NewAttackDecay(mcd.DefaultParams())
	spec.Name = "attack-decay"
	ad := mcd.Run(spec)

	c := mcd.Compare(ad, base)
	if c.EnergySavings <= 0 {
		t.Errorf("no energy savings: %+v", c)
	}
	if c.PerfDegradation > 0.10 {
		t.Errorf("degradation %v too high", c.PerfDegradation)
	}
	s := mcd.Summarize([]mcd.Comparison{c})
	if s.N != 1 || s.EnergySavings != c.EnergySavings {
		t.Errorf("summary inconsistent: %+v", s)
	}
}

func TestPublicAPISynchronousBaseline(t *testing.T) {
	bench, _ := mcd.LookupBenchmark("adpcm")
	spec, err := mcd.ControllerSpec("sync", mcd.ControllerParams{"freq_mhz": 1000}, mcd.ControllerRun{
		Config: mcd.DefaultConfig(), Profile: bench.Profile, Window: 50_000, Warmup: 10_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := mcd.Run(spec)
	if res.Instructions != 50_000 {
		t.Fatalf("retired %d", res.Instructions)
	}
	if res.CPI() <= 0 {
		t.Error("CPI not positive")
	}
}

func TestCatalogExposed(t *testing.T) {
	if got := len(mcd.Catalog()); got != 30 {
		t.Errorf("catalog = %d benchmarks, want 30", got)
	}
}
