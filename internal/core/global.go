package core

import (
	"mcd/internal/dvfs"
	"mcd/internal/pipeline"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// GlobalMatch finds, by bisection over the 320-point operating scale, the
// single global frequency at which the conventional fully synchronous
// processor suffers the given performance degradation relative to baseTime
// (its own 1 GHz run). This reproduces the Global(·) rows of Table 6: the
// comparison point for each algorithm is global voltage scaling tuned to
// the same slowdown.
//
// It returns the chosen frequency and the run at that frequency. Because
// memory latency is fixed in wall-clock terms, memory-bound workloads
// degrade sublinearly in frequency, which is precisely why global scaling
// saves so little energy per unit of slowdown (ratio ≈ 2).
func GlobalMatch(cfg pipeline.Config, prof workload.Profile, window, warmup uint64, baseTime float64, targetDeg float64, name string) (float64, stats.Result) {
	return GlobalMatchFidelity(cfg, prof, window, warmup, baseTime, targetDeg, name, "", 0, 0, nil)
}

// GlobalMatchFidelity is GlobalMatch with the bisection's probe runs
// executed at the given fidelity tier ("" = exact), so a sampled request
// pays sampled prices for the search. The exact-tier path is GlobalMatch
// verbatim. Every probe goes through run (nil means sim.Run), so a
// caller can share probes between searches that visit the same
// frequency; run must return sim.Run's result for the spec.
func GlobalMatchFidelity(cfg pipeline.Config, prof workload.Profile, window, warmup uint64, baseTime float64, targetDeg float64, name, fidelity string, sampleEvery int, intervalLen uint64, run func(sim.Spec) stats.Result) (float64, stats.Result) {
	if run == nil {
		run = sim.Run
	}
	runAt := func(f float64) stats.Result {
		spec := sim.SynchronousSpec(cfg, prof, window, warmup, f, name)
		spec.Fidelity = fidelity
		spec.SampleEvery = sampleEvery
		if spec.Sampled() {
			// The interval is the sampling unit; exact probes keep the
			// pipeline's default-length intervals unchanged.
			spec.IntervalLength = intervalLen
		}
		return run(spec)
	}
	scale := dvfs.DefaultScale()
	lo, hi := 0, scale.Points()-1 // index 0 = 250 MHz, max index = 1000 MHz
	freqAt := func(i int) float64 { return scale.MinFreqMHz() + float64(i)*scale.StepMHz() }

	if targetDeg <= 0 {
		res := runAt(freqAt(hi))
		return freqAt(hi), res
	}

	var best stats.Result
	bestFreq := freqAt(hi)
	bestDiff := -1.0
	for lo < hi {
		mid := (lo + hi) / 2
		f := freqAt(mid)
		res := runAt(f)
		deg := res.TimePS/baseTime - 1
		diff := deg - targetDeg
		if bestDiff < 0 || abs(diff) < bestDiff {
			bestDiff = abs(diff)
			best = res
			bestFreq = f
		}
		if deg > targetDeg {
			lo = mid + 1 // too slow: need a higher frequency
		} else {
			hi = mid // within budget: try lower
		}
	}
	if best.Instructions == 0 {
		best = runAt(bestFreq)
	}
	return bestFreq, best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
