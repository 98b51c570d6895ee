package core

import (
	"mcd/internal/dvfs"
	"mcd/internal/stats"
)

// GlobalMatch finds, by bisection over the 320-point operating scale, the
// single global frequency at which the conventional fully synchronous
// processor suffers the given performance degradation relative to baseTime
// (its own 1 GHz run). This reproduces the Global(·) rows of Table 6: the
// comparison point for each algorithm is global voltage scaling tuned to
// the same slowdown.
//
// probe runs the synchronous processor at one frequency; the caller owns
// the run's scale, fidelity tier and any sharing of probes between
// searches that visit the same frequency. It returns the chosen
// frequency and the run at that frequency. Because memory latency is
// fixed in wall-clock terms, memory-bound workloads degrade sublinearly
// in frequency, which is precisely why global scaling saves so little
// energy per unit of slowdown (ratio ≈ 2).
func GlobalMatch(baseTime, targetDeg float64, probe func(freqMHz float64) stats.Result) (float64, stats.Result) {
	scale := dvfs.DefaultScale()
	lo, hi := 0, scale.Points()-1 // index 0 = 250 MHz, max index = 1000 MHz
	freqAt := func(i int) float64 { return scale.MinFreqMHz() + float64(i)*scale.StepMHz() }

	if targetDeg <= 0 {
		res := probe(freqAt(hi))
		return freqAt(hi), res
	}

	var best stats.Result
	bestFreq := freqAt(hi)
	bestDiff := -1.0
	for lo < hi {
		mid := (lo + hi) / 2
		f := freqAt(mid)
		res := probe(f)
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
		best = probe(bestFreq)
	}
	return bestFreq, best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
