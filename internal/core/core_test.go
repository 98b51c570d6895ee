package core

import (
	"math"
	"testing"

	"mcd/internal/clock"
	"mcd/internal/pipeline"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// view builds an IntervalView with the given per-domain utilization and IPC.
func view(intU, fpU, lsU, ipc float64) pipeline.IntervalView {
	var v pipeline.IntervalView
	v.QueueUtil[clock.Integer] = intU
	v.QueueUtil[clock.FloatingPoint] = fpU
	v.QueueUtil[clock.LoadStore] = lsU
	v.IPC = ipc
	return v
}

func TestAttackDecayPinsFrontEnd(t *testing.T) {
	a := NewAttackDecay(DefaultParams())
	tg := a.Observe(view(5, 5, 5, 2))
	if tg[clock.FrontEnd] != 1000 {
		t.Errorf("front end target = %v, want 1000", tg[clock.FrontEnd])
	}
}

func TestAttackDecayAttacksUpOnUtilizationSpike(t *testing.T) {
	a := NewAttackDecay(DefaultParams())
	a.Observe(view(4, 4, 4, 2))
	// Drop the integer domain well below max so the attack is visible
	// without clamping.
	a.domains[clock.Integer].freqMHz = 600
	before := a.domains[clock.Integer].freqMHz
	tg := a.Observe(view(8, 4, 4, 2)) // +100% integer utilization
	after := a.domains[clock.Integer].freqMHz
	if after <= before {
		t.Errorf("frequency did not rise on utilization spike: %v -> %v", before, after)
	}
	scale := (1 / after) / (1 / before)
	if math.Abs(scale-(1-DefaultParams().ReactionChange)) > 1e-9 {
		t.Errorf("period scale = %v, want 1-ReactionChange", scale)
	}
	if tg[clock.Integer] != after {
		t.Errorf("returned target %v != internal state %v", tg[clock.Integer], after)
	}
}

func TestAttackDecayDecaysWhenQuiet(t *testing.T) {
	p := DefaultParams()
	a := NewAttackDecay(p)
	a.Observe(view(4, 0, 4, 2))
	f0 := a.domains[clock.FloatingPoint].freqMHz
	for i := 0; i < 20; i++ {
		a.Observe(view(4, 0, 4, 2)) // FP unused, steady state
	}
	f1 := a.domains[clock.FloatingPoint].freqMHz
	if f1 >= f0 {
		t.Errorf("unused FP domain did not decay: %v -> %v", f0, f1)
	}
	want := 1000.0
	for i := 0; i < 21; i++ {
		want = 1 / ((1 / want) * (1 + p.Decay))
	}
	if math.Abs(f1-want) > 1e-6 {
		t.Errorf("decay arithmetic: got %v, want %v (Listing 1 period scaling)", f1, want)
	}
}

func TestAttackDecayAttacksDownOnUtilizationDrop(t *testing.T) {
	a := NewAttackDecay(DefaultParams())
	a.Observe(view(4, 4, 10, 2))
	before := a.domains[clock.LoadStore].freqMHz
	a.Observe(view(4, 4, 2, 2)) // -80% LSQ utilization
	after := a.domains[clock.LoadStore].freqMHz
	scale := (1 / after) / (1 / before)
	if after >= before {
		t.Fatalf("load/store freq did not drop on utilization drop: %v -> %v", before, after)
	}
	if math.Abs(scale-(1+DefaultParams().ReactionChange)) > 1e-9 {
		t.Errorf("period scale = %v, want 1+ReactionChange", scale)
	}
}

func TestAttackDecayPerfDegThresholdBlocksDecreases(t *testing.T) {
	a := NewAttackDecay(DefaultParams())
	a.Observe(view(4, 4, 10, 2.0))
	before := a.domains[clock.LoadStore].freqMHz
	// Utilization drops sharply, but IPC also collapsed (natural
	// performance dip): the decrease must be suppressed.
	a.Observe(view(4, 4, 2, 1.0))
	after := a.domains[clock.LoadStore].freqMHz
	if after != before {
		t.Errorf("frequency changed (%v -> %v) despite IPC drop beyond threshold", before, after)
	}
}

func TestAttackDecayEndstopForcing(t *testing.T) {
	p := DefaultParams()
	p.EndstopCount = 3
	a := NewAttackDecay(p)
	// Rising FP utilization every interval keeps attacking toward max.
	// (The very first interval decays — no previous utilization — so
	// the endstop counter starts counting one interval later.)
	for i := 0; i < 4; i++ {
		a.Observe(view(4, float64(10+i*5), 4, 2))
	}
	if f := a.domains[clock.FloatingPoint].freqMHz; f != 1000 {
		t.Fatalf("FP domain should sit at max, got %v", f)
	}
	// Next interval hits the upper endstop (3 consecutive at max): a
	// forced decrease probe must fire even though utilization keeps rising.
	a.Observe(view(4, 40, 4, 2))
	if f := a.domains[clock.FloatingPoint].freqMHz; f >= 1000 {
		t.Errorf("upper endstop did not force a probe away from max: %v", f)
	}
}

func TestAttackDecayLowerEndstopForcesProbeUp(t *testing.T) {
	p := DefaultParams()
	p.EndstopCount = 2
	a := NewAttackDecay(p)
	for d := range a.domains {
		a.domains[d].freqMHz = p.MinMHz
	}
	a.Observe(view(0, 0, 0, 2)) // at min: lowerEnds -> 1
	a.Observe(view(0, 0, 0, 2)) // lowerEnds -> 2
	a.Observe(view(0, 0, 0, 2)) // forced increase
	if f := a.domains[clock.Integer].freqMHz; f <= p.MinMHz {
		t.Errorf("lower endstop did not force a probe up: %v", f)
	}
}

func TestAttackDecayFrequencyStaysInRange(t *testing.T) {
	a := NewAttackDecay(DefaultParams())
	for i := 0; i < 200; i++ {
		u := float64((i * 37) % 23)
		tg := a.Observe(view(u, 23-u, u/2, 1+u/10))
		for _, d := range []clock.Domain{clock.Integer, clock.FloatingPoint, clock.LoadStore} {
			if tg[d] < 250-1e-9 || tg[d] > 1000+1e-9 {
				t.Fatalf("interval %d: domain %v target %v out of range", i, d, tg[d])
			}
		}
	}
}

func TestParamsLabelMatchesPaperFormat(t *testing.T) {
	if got := DefaultParams().Label(); got != "1.750_06.0_0.175_2.5" {
		t.Errorf("label = %q, want paper-style 1.750_06.0_0.175_2.5", got)
	}
}

// ----- end-to-end behaviour -----

func adRun(t *testing.T, prof workload.Profile, window uint64) (ad, base struct {
	TimePS, EnergyPJ float64
	FPFreq           float64
}) {
	t.Helper()
	cfg := pipeline.DefaultConfig()
	cfg.SlewNsPerMHz = 4.91 // time-scale compression to match interval 1000
	const warm = 250_000
	b := sim.Run(sim.Spec{Config: cfg, Profile: prof, Window: window, Warmup: warm, Name: "mcd-base"})
	a := sim.Run(sim.Spec{
		Config: cfg, Profile: prof, Window: window, Warmup: warm, IntervalLength: 1000,
		Controller: NewAttackDecay(DefaultParams()), Name: "attack-decay",
	})
	ad.TimePS, ad.EnergyPJ, ad.FPFreq = a.TimePS, a.EnergyPJ, a.AvgFreqMHz[clock.FloatingPoint]
	base.TimePS, base.EnergyPJ, base.FPFreq = b.TimePS, b.EnergyPJ, b.AvgFreqMHz[clock.FloatingPoint]
	return ad, base
}

func TestAttackDecaySavesEnergyOnIntegerCode(t *testing.T) {
	bench, ok := workload.Lookup("gzip")
	if !ok {
		t.Fatal("gzip missing")
	}
	ad, base := adRun(t, bench.Profile, 500_000)
	deg := ad.TimePS/base.TimePS - 1
	sav := 1 - ad.EnergyPJ/base.EnergyPJ
	if sav <= 0.02 {
		t.Errorf("energy savings = %v, want clearly positive", sav)
	}
	if deg > 0.10 {
		t.Errorf("performance degradation = %v, want modest", deg)
	}
	if ad.FPFreq > 800 {
		t.Errorf("FP domain averaged %v MHz on FP-free code; expected sustained decay", ad.FPFreq)
	}
}

func TestAttackDecayKeepsFPFastOnFPCode(t *testing.T) {
	bench, ok := workload.Lookup("swim")
	if !ok {
		t.Fatal("swim missing")
	}
	ad, _ := adRun(t, bench.Profile, 500_000)
	if ad.FPFreq < 500 {
		t.Errorf("FP domain averaged %v MHz on FP-heavy swim; algorithm over-throttled a critical domain", ad.FPFreq)
	}
}

func TestOfflineBuilderMeetsTarget(t *testing.T) {
	bench, ok := workload.Lookup("jpeg")
	if !ok {
		t.Fatal("jpeg missing")
	}
	cfg := pipeline.DefaultConfig()
	const window = 200_000
	const warm = 50_000
	ctrl, base := BuildOffline(cfg, bench.Profile, window, OfflineOptions{TargetDeg: 0.05, Warmup: warm}, sim.Run)
	res := sim.Run(sim.Spec{
		Config: cfg, Profile: bench.Profile, Window: window, Warmup: warm,
		Controller: ctrl, InitialFreqMHz: ctrl.Initial(), Name: ctrl.Name(),
	})
	deg := res.TimePS/base.TimePS - 1
	sav := 1 - res.EnergyPJ/base.EnergyPJ
	if deg > 0.10 {
		t.Errorf("offline Dynamic-5%% degradation = %v, want <= ~2x target", deg)
	}
	if sav <= 0 {
		t.Errorf("offline schedule saved no energy (%v)", sav)
	}
}

func TestGlobalMatchHitsDegradationTarget(t *testing.T) {
	bench, ok := workload.Lookup("gsm")
	if !ok {
		t.Fatal("gsm missing")
	}
	cfg := pipeline.DefaultConfig()
	const window = 150_000
	const warm = 50_000
	base := sim.Run(sim.SynchronousSpec(cfg, bench.Profile, window, warm, 1000, "sync-base"))
	freq, res := GlobalMatch(base.TimePS, 0.04, func(f float64) stats.Result {
		return sim.Run(sim.SynchronousSpec(cfg, bench.Profile, window, warm, f, "global-4%"))
	})
	deg := res.TimePS/base.TimePS - 1
	if math.Abs(deg-0.04) > 0.02 {
		t.Errorf("global scaling degradation = %v, want ~0.04 (freq %v)", deg, freq)
	}
	if freq >= 1000 {
		t.Error("global match did not reduce frequency")
	}
	if sav := 1 - res.EnergyPJ/base.EnergyPJ; sav <= 0 {
		t.Errorf("global scaling saved no energy (%v)", sav)
	}
}

func TestGlobalMatchZeroTargetStaysAtMax(t *testing.T) {
	bench, _ := workload.Lookup("adpcm")
	cfg := pipeline.DefaultConfig()
	base := sim.Run(sim.SynchronousSpec(cfg, bench.Profile, 50_000, 0, 1000, "sync-base"))
	freq, _ := GlobalMatch(base.TimePS, 0, func(f float64) stats.Result {
		return sim.Run(sim.SynchronousSpec(cfg, bench.Profile, 50_000, 0, f, "global-0"))
	})
	if freq != 1000 {
		t.Errorf("zero-degradation target should stay at 1000 MHz, got %v", freq)
	}
}

func TestOfflineControllerLeadsByOneInterval(t *testing.T) {
	sched := Schedule{
		{1000, 1000, 1000, 1000},
		{1000, 900, 800, 700},
		{1000, 500, 400, 300},
	}
	o := NewOfflineController("test", sched)
	if got := o.Initial(); got != sched[0] {
		t.Errorf("Initial = %v, want %v", got, sched[0])
	}
	var iv pipeline.IntervalView
	if got := o.Observe(iv); got != sched[1] {
		t.Errorf("first Observe = %v, want schedule[1]", got)
	}
	if got := o.Observe(iv); got != sched[2] {
		t.Errorf("second Observe = %v, want schedule[2]", got)
	}
	// Past the end: hold the last entry.
	if got := o.Observe(iv); got != sched[2] {
		t.Errorf("post-end Observe = %v, want last entry held", got)
	}
}
