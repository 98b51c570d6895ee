package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcd/internal/clock"
	"mcd/internal/dvfs"
	"mcd/internal/workload"
)

// Property: for any mix and any legal fixed domain frequencies, a run (a)
// retires exactly the requested window, (b) reports strictly positive time
// and energy, (c) never exceeds the maximum total power envelope implied
// by running every structure at Vmax every cycle.
func TestRunInvariantsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation property test")
	}
	f := func(seed int64, fsel [4]uint8, mixSel uint8) bool {
		prof := workload.Profile{
			Name: "prop", Seed: seed,
			Phases: []workload.Phase{{
				Mix: workload.Mix{
					IntALU: 0.4,
					FPAdd:  float64(mixSel%3) * 0.1,
					Load:   0.25,
					Store:  0.1,
					Branch: 0.15,
				},
				WorkingSet: 128 << 10,
			}},
		}
		cfg := DefaultConfig()
		cfg.Seed = seed
		var init [clock.NumControllable]float64
		for d := 1; d < clock.NumControllable; d++ { // front end stays at max
			init[d] = 250 + float64(fsel[d])/255*750
		}
		gen := prof.NewGenerator(20_000)
		res := New(cfg, gen).Run(RunOptions{Window: 20_000, InitialFreqMHz: init})
		if res.Instructions != 20_000 {
			return false
		}
		if res.TimePS <= 0 || res.EnergyPJ <= 0 {
			return false
		}
		// Average power sanity: the chip cannot draw more than a loose
		// upper bound (every unit active at Vnom every ns).
		return res.PowerW() < 50
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Property: whatever a controller asks for — zero, negative or beyond
// the scale — a controlled run at either fidelity tier keeps every
// regulator target inside [DefaultMinFreqMHz, DefaultMaxFreqMHz], its
// measured time and energy never decrease from one interval step to the
// next, and it retires exactly the window.
func TestControlledRunInvariantsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation property test")
	}
	b, _ := workload.Lookup("gzip")
	const window, warmup = 40_000, 20_000
	inRange := func(f [clock.NumControllable]float64) bool {
		for _, mhz := range f {
			if mhz < dvfs.DefaultMinFreqMHz || mhz > dvfs.DefaultMaxFreqMHz {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		for _, every := range []int{0, 4} {
			rng := rand.New(rand.NewSource(seed))
			ctrl := controllerFunc{name: "random", fn: func(IntervalView) (mhz [clock.NumControllable]float64) {
				for d := range mhz {
					mhz[d] = float64(rng.Intn(1600) - 200)
				}
				return mhz
			}}
			c := New(DefaultConfig(), b.Profile.NewGenerator(warmup+window))
			c.Start(RunOptions{
				Window: window, Warmup: warmup, IntervalLength: 500,
				Controller: ctrl, RecordIntervals: true, SampleEvery: every,
			})
			prev := c.Progress()
			for more := true; more; {
				more = c.StepIntervals(1)
				p := c.Progress()
				if p.TimePS < prev.TimePS || p.EnergyPJ < prev.EnergyPJ || !inRange(p.FreqMHz) {
					t.Logf("seed %d, SampleEvery %d: progress %+v after %+v", seed, every, p, prev)
					return false
				}
				prev = p
			}
			res := c.Finish()
			if res.Instructions != window {
				t.Logf("seed %d, SampleEvery %d: retired %d, want %d", seed, every, res.Instructions, window)
				return false
			}
			for _, iv := range res.Intervals {
				if !inRange(iv.FreqMHz) {
					t.Logf("seed %d, SampleEvery %d: interval %d targets %v", seed, every, iv.Index, iv.FreqMHz)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Property: lowering any single domain's frequency never reduces execution
// time (performance is monotone in domain frequency for a fixed workload).
func TestFrequencyMonotonicityProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation property test")
	}
	prof := workload.Profile{
		Name: "mono", Seed: 99,
		Phases: []workload.Phase{{
			Mix:        workload.Mix{IntALU: 0.35, FPAdd: 0.15, Load: 0.25, Store: 0.1, Branch: 0.15},
			WorkingSet: 256 << 10,
		}},
	}
	cfg := DefaultConfig()
	base := New(cfg, prof.NewGenerator(30_000)).Run(RunOptions{Window: 30_000})
	for _, d := range []clock.Domain{clock.Integer, clock.FloatingPoint, clock.LoadStore} {
		var init [clock.NumControllable]float64
		init[d] = 500
		slow := New(cfg, prof.NewGenerator(30_000)).Run(RunOptions{Window: 30_000, InitialFreqMHz: init})
		// Allow jitter-level noise (0.5%) but no systematic speedup.
		if slow.TimePS < base.TimePS*0.995 {
			t.Errorf("slowing %v sped execution up: %v -> %v ps", d, base.TimePS, slow.TimePS)
		}
	}
}

// Property: the energy accounting is internally consistent — domain
// energies sum to the total, and every domain with activity reports
// positive energy.
func TestEnergyAccountingProperty(t *testing.T) {
	prof := workload.Profile{
		Name: "energy", Seed: 5,
		Phases: []workload.Phase{{
			Mix: workload.Mix{IntALU: 0.4, FPMul: 0.1, Load: 0.25, Store: 0.1, Branch: 0.15},
		}},
	}
	res := New(DefaultConfig(), prof.NewGenerator(25_000)).Run(RunOptions{Window: 25_000})
	var sum float64
	for d := clock.Domain(0); d < clock.NumDomains; d++ {
		sum += res.DomainEnergyPJ[d]
	}
	if diff := sum - res.EnergyPJ; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("domain energies sum to %v, total %v", sum, res.EnergyPJ)
	}
	for _, d := range []clock.Domain{clock.FrontEnd, clock.Integer, clock.FloatingPoint, clock.LoadStore} {
		if res.DomainEnergyPJ[d] <= 0 {
			t.Errorf("domain %v reports no energy", d)
		}
	}
	if res.DomainEnergyPJ[clock.Memory] != 0 {
		t.Errorf("external memory domain should carry no modeled energy, got %v", res.DomainEnergyPJ[clock.Memory])
	}
}

// Warmup must not change the measured instruction count and must reduce
// the apparent cold-start CPI.
func TestWarmupSemantics(t *testing.T) {
	b, _ := workload.Lookup("gcc")
	cfg := DefaultConfig()
	cold := New(cfg, b.Profile.NewGenerator(40_000)).Run(RunOptions{Window: 40_000})
	gen := b.Profile.NewGenerator(240_000)
	warm := New(cfg, gen).Run(RunOptions{Window: 40_000, Warmup: 200_000})
	if warm.Instructions != 40_000 {
		t.Fatalf("measured %d instructions, want 40000", warm.Instructions)
	}
	if warm.CPI() >= cold.CPI() {
		t.Errorf("warmed CPI %v not better than cold CPI %v", warm.CPI(), cold.CPI())
	}
}
