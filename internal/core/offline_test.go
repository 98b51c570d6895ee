package core

import (
	"testing"

	"mcd/internal/clock"
	"mcd/internal/pipeline"
	"mcd/internal/sim"
	"mcd/internal/workload"
)

func TestOfflineControllerSkipsWarmupIntervals(t *testing.T) {
	sched := Schedule{
		{1000, 1000, 1000, 1000},
		{1000, 900, 800, 700},
		{1000, 500, 400, 300},
	}
	o := NewOfflineController("test", sched)
	warm := pipeline.IntervalView{Warmup: true}
	for i := 0; i < 5; i++ {
		if got := o.Observe(warm); got != ([clock.NumControllable]float64{}) {
			t.Fatalf("warmup view %d produced targets %v", i, got)
		}
	}
	// First measured interval must still receive schedule[1]: the warmup
	// views did not advance the schedule.
	if got := o.Observe(pipeline.IntervalView{}); got != sched[1] {
		t.Errorf("first measured Observe = %v, want schedule[1] %v", got, sched[1])
	}
}

func TestOfflineControllerEmptySchedule(t *testing.T) {
	o := NewOfflineController("empty", nil)
	if got := o.Initial(); got != ([clock.NumControllable]float64{}) {
		t.Errorf("Initial on empty schedule = %v", got)
	}
	if got := o.Observe(pipeline.IntervalView{}); got != ([clock.NumControllable]float64{}) {
		t.Errorf("Observe on empty schedule = %v", got)
	}
	if o.Name() != "empty" {
		t.Errorf("name = %q", o.Name())
	}
}

func TestAttackDecayEndstopDisabled(t *testing.T) {
	p := DefaultParams()
	p.EndstopCount = 0 // "infinite" endstop, which the paper found degrades the algorithm
	a := NewAttackDecay(p)
	// Pin at max with rising utilization for many intervals: without
	// endstop forcing the frequency must never leave the maximum.
	for i := 0; i < 40; i++ {
		a.Observe(view(4, float64(10+i), 4, 2))
	}
	if f := a.domains[clock.FloatingPoint].freqMHz; f != 1000 {
		t.Errorf("disabled endstop still forced a probe: %v", f)
	}
}

func TestAttackDecayCustomSmoothing(t *testing.T) {
	p := DefaultParams()
	p.IPCSmoothing = 1.0 // no smoothing: EMA equals the raw IPC
	p.RefIPCDecay = 1e-9 // reference effectively never decays
	a := NewAttackDecay(p)
	a.Observe(view(4, 4, 4, 2.0))
	// IPC halves: guard must block the decay (ref stays near 2.0).
	before := a.domains[clock.Integer].freqMHz
	a.Observe(view(4, 4, 4, 1.0))
	if after := a.domains[clock.Integer].freqMHz; after != before {
		t.Errorf("decrease applied despite 50%% IPC drop: %v -> %v", before, after)
	}
}

func TestAttackDecayNameIncludesParams(t *testing.T) {
	a := NewAttackDecay(DefaultParams())
	if a.Name() != "attack-decay-1.750_06.0_0.175_2.5" {
		t.Errorf("name = %q", a.Name())
	}
}

// TestAdaptiveStepMeetsCapAtQuickScale pins the cap-overshoot fix: at a
// compressed quick scale the window holds so few intervals that one
// fixed 10% down-step jumps straight past a tight dilation cap — the
// classic search commits the overshoot (here ~8x the 1% target).
// AdaptiveStep bisects the step toward a no-op whenever every candidate
// overshoots, and must land the final schedule within [0.9, 1.1] x
// TargetDeg at the same scale.
func TestAdaptiveStepMeetsCapAtQuickScale(t *testing.T) {
	b, ok := workload.Lookup("adpcm")
	if !ok {
		t.Fatal("adpcm missing from catalog")
	}
	cfg := pipeline.DefaultConfig()
	const (
		window = 20_000
		warmup = 10_000
		il     = 500
		target = 0.01
	)
	degOf := func(adaptive bool) float64 {
		ctrl, base := BuildOffline(cfg, b.Profile, window, OfflineOptions{
			TargetDeg: target, Warmup: warmup, IntervalLength: il,
			AdaptiveStep: adaptive,
		}, sim.Run)
		res := sim.Run(sim.Spec{
			Config: cfg, Profile: b.Profile, Window: window, Warmup: warmup,
			IntervalLength: il, Controller: ctrl, InitialFreqMHz: ctrl.Initial(),
			Name: "adaptive-step-test",
		})
		return res.TimePS/base.TimePS - 1
	}

	fixed := degOf(false)
	if fixed <= target*1.1 {
		// The regression scenario itself: if the fixed step no longer
		// overshoots here, this test is pinning nothing.
		t.Fatalf("fixed step met the cap (deg=%.5f <= %.5f) — the quick-scale overshoot scenario is gone", fixed, target*1.1)
	}
	adaptive := degOf(true)
	if adaptive < target*0.9 || adaptive > target*1.1 {
		t.Errorf("adaptive step landed at deg=%.5f, want within [%.5f, %.5f] (fixed step: %.5f)",
			adaptive, target*0.9, target*1.1, fixed)
	}
}

// TestAdaptiveCacheExtraPreservesLegacyAddresses: enabling the knob must
// change the content address (a different search is a different
// outcome), while the default must keep every legacy address intact.
func TestAdaptiveCacheExtraPreservesLegacyAddresses(t *testing.T) {
	legacy := OfflineOptions{TargetDeg: 0.05}.CacheExtra()
	if want := "offline|target=0x1.999999999999ap-05|iters=6|down=0x1.ccccccccccccdp-01|up=0x1.2666666666666p+00|cands=1"; legacy != want {
		t.Errorf("legacy CacheExtra = %q, want %q", legacy, want)
	}
	adaptive := OfflineOptions{TargetDeg: 0.05, AdaptiveStep: true}.CacheExtra()
	if adaptive != legacy+"|adapt=1" {
		t.Errorf("adaptive CacheExtra = %q, want legacy + |adapt=1", adaptive)
	}
}

func TestScheduleClampRange(t *testing.T) {
	// BuildOffline clamps schedules to [250,1000]; validate the clamp
	// arithmetic at the boundaries via a direct mini-schedule sanity run.
	sched := Schedule{{1000, 250, 1000, 250}}
	o := NewOfflineController("clamped", sched)
	init := o.Initial()
	if init[clock.Integer] != 250 || init[clock.LoadStore] != 250 {
		t.Errorf("initial = %v", init)
	}
}
