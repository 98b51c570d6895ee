// Package core implements the paper's primary contribution — the
// Attack/Decay on-line frequency/voltage controller of Listing 1 — along
// with the comparator algorithms of the evaluation: the off-line
// Dynamic-X% slack scheduler and conventional global voltage scaling.
package core

import (
	"fmt"

	"mcd/internal/clock"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
)

// Params are the Attack/Decay configuration parameters of Table 2. All
// percentage parameters are expressed as fractions (1.75% = 0.0175).
type Params struct {
	// DeviationThreshold is the relative queue-utilization change that
	// triggers an attack (paper range 0–2.5%).
	DeviationThreshold float64
	// ReactionChange is the period scale factor applied in attack mode
	// (paper range 0.5–15.5%).
	ReactionChange float64
	// Decay is the period scale factor applied every quiet interval
	// (paper range 0–2%).
	Decay float64
	// PerfDegThreshold is the performance degradation goal: frequency
	// decreases are suppressed while the interval IPC sits more than
	// this fraction below the reference (best recent) IPC (paper range
	// 0–12%; Figure 5a shows measured degradation tracking this value as
	// a target). DESIGN.md, "Attack/Decay's IPC guard", reads Listing
	// 1's guard.
	PerfDegThreshold float64
	// RefIPCDecay is the per-interval decay of the reference IPC, which
	// lets the reference adapt when the program enters an inherently
	// slower phase (so a stale reference does not block energy savings
	// forever). Zero uses the default 1%.
	RefIPCDecay float64
	// IPCSmoothing is the EMA coefficient applied to the interval IPC
	// before the guard comparison (the hardware equivalent is a few
	// extra accumulator bits). Zero uses the default 0.25.
	IPCSmoothing float64
	// EndstopCount is the number of consecutive intervals a domain may
	// sit at a frequency extreme before an attack away from the end stop
	// is forced (paper: 10; sensitivity range 1–25; <=0 disables).
	EndstopCount int

	// FrontEndMHz pins the front-end domain (the paper fixes it at the
	// maximum frequency because slowing it degrades performance almost
	// linearly and it has no input queue to observe).
	FrontEndMHz float64
	// MinMHz and MaxMHz bound the commanded frequency (Table 1).
	MinMHz, MaxMHz float64
}

// DefaultParams returns the configuration used for the paper's headline
// results (Section 5): DeviationThreshold 1.75%, ReactionChange 6.0%,
// Decay 0.175%, PerfDegThreshold 2.5%.
func DefaultParams() Params {
	return Params{
		DeviationThreshold: 0.0175,
		ReactionChange:     0.060,
		Decay:              0.00175,
		PerfDegThreshold:   0.025,
		EndstopCount:       10,
		FrontEndMHz:        1000,
		MinMHz:             250,
		MaxMHz:             1000,
	}
}

// Label formats the parameters the way the paper's figure legends do:
// DeviationThreshold_ReactionChange_Decay_PerfDegThreshold in percent.
func (p Params) Label() string {
	return fmt.Sprintf("%.3f_%04.1f_%.3f_%.1f",
		p.DeviationThreshold*100, p.ReactionChange*100, p.Decay*100, p.PerfDegThreshold*100)
}

// adDomain is the per-domain controller state: each controlled domain runs
// an independent instance of the algorithm (decentralized control), with
// the global IPC counter as the only shared signal.
type adDomain struct {
	freqMHz   float64
	prevUtil  float64
	havePrev  bool
	upperEnds int
	lowerEnds int
}

// AttackDecay is the on-line controller. It implements
// pipeline.Controller; one instance controls the integer, floating-point
// and load/store domains and pins the front end.
type AttackDecay struct {
	p       Params
	domains [clock.NumControllable]adDomain
	refIPC  float64
	ipcEMA  float64
	haveIPC bool
}

var _ pipeline.Controller = (*AttackDecay)(nil)

// NewAttackDecay returns a controller with every domain starting at the
// maximum frequency.
func NewAttackDecay(p Params) *AttackDecay {
	a := &AttackDecay{p: p}
	for d := range a.domains {
		a.domains[d].freqMHz = p.MaxMHz
	}
	return a
}

// Name implements pipeline.Controller.
func (a *AttackDecay) Name() string { return "attack-decay-" + a.p.Label() }

// CacheKey implements resultcache.Keyer: the canonical encoding of the
// construction parameters. Two fresh controllers with equal keys behave
// identically, which is all the result store needs under the runner
// purity contract (each run gets its own instance). Floats use the
// store's exact encoding (resultcache.Float) so no two distinct
// configurations collide.
func (a *AttackDecay) CacheKey() string {
	h := resultcache.Float
	p := a.p
	return fmt.Sprintf("attack-decay|dev=%s|react=%s|decay=%s|perf=%s|refdecay=%s|smooth=%s|endstop=%d|fe=%s|min=%s|max=%s",
		h(p.DeviationThreshold), h(p.ReactionChange), h(p.Decay), h(p.PerfDegThreshold),
		h(p.RefIPCDecay), h(p.IPCSmoothing), p.EndstopCount, h(p.FrontEndMHz), h(p.MinMHz), h(p.MaxMHz))
}

// Observe implements Listing 1 of the paper for each controlled domain.
func (a *AttackDecay) Observe(iv pipeline.IntervalView) [clock.NumControllable]float64 {
	// Estimated (fast-forwarded) intervals run the same algorithm: their
	// frozen queue utilization reads as a quiet phase, so the replay
	// decays — which is what the exact tier does in a quiet phase, and the
	// pipeline only schedules skips while the controller has been quiet
	// (see Core.noteTargets). End-stop probes still fire during skips and
	// densify the sampling behind them.
	var targets [clock.NumControllable]float64
	targets[clock.FrontEnd] = a.p.FrontEndMHz

	// The guard of Listing 1 lines 19 & 25: frequency decreases are
	// suppressed while IPC sits more than PerfDegThreshold below the
	// reference IPC, capping the total degradation the algorithm will
	// cause and keeping it from reacting to performance dips that are
	// unrelated to domain frequency.
	refDecay := a.p.RefIPCDecay
	if refDecay == 0 {
		refDecay = 0.01
	}
	alpha := a.p.IPCSmoothing
	if alpha == 0 {
		alpha = 0.25
	}
	if !a.haveIPC {
		a.ipcEMA = iv.IPC
		a.refIPC = iv.IPC
		a.haveIPC = true
	} else {
		a.ipcEMA += alpha * (iv.IPC - a.ipcEMA)
		a.refIPC *= 1 - refDecay
		if a.ipcEMA > a.refIPC {
			a.refIPC = a.ipcEMA
		}
	}
	ipcOK := true
	if a.ipcEMA > 0 {
		ipcOK = a.refIPC/a.ipcEMA-1 <= a.p.PerfDegThreshold
	}

	for _, d := range []clock.Domain{clock.Integer, clock.FloatingPoint, clock.LoadStore} {
		st := &a.domains[d]
		util := iv.QueueUtil[d]

		scale := 1.0 // period scale factor: >1 slows the domain, <1 speeds it
		switch {
		case a.p.EndstopCount > 0 && st.upperEnds == a.p.EndstopCount:
			scale = 1.0 + a.p.ReactionChange // force a probe away from max
		case a.p.EndstopCount > 0 && st.lowerEnds == a.p.EndstopCount:
			scale = 1.0 - a.p.ReactionChange // force a probe away from min
		case st.havePrev && util-st.prevUtil > st.prevUtil*a.p.DeviationThreshold:
			scale = 1.0 - a.p.ReactionChange // attack: significant increase
		case st.havePrev && st.prevUtil-util > st.prevUtil*a.p.DeviationThreshold:
			if ipcOK {
				scale = 1.0 + a.p.ReactionChange // attack: significant decrease
			}
		default:
			if ipcOK {
				scale = 1.0 + a.p.Decay // quiet or unused: decay
			}
		}

		st.freqMHz = 1.0 / ((1.0 / st.freqMHz) * scale)
		if st.freqMHz < a.p.MinMHz {
			st.freqMHz = a.p.MinMHz
		}
		if st.freqMHz > a.p.MaxMHz {
			st.freqMHz = a.p.MaxMHz
		}

		// End-stop bookkeeping (Listing 1 lines 38–47).
		if st.freqMHz <= a.p.MinMHz && st.lowerEnds != a.p.EndstopCount {
			st.lowerEnds++
		} else {
			st.lowerEnds = 0
		}
		if st.freqMHz >= a.p.MaxMHz && st.upperEnds != a.p.EndstopCount {
			st.upperEnds++
		} else {
			st.upperEnds = 0
		}

		st.prevUtil = util
		st.havePrev = true
		targets[d] = st.freqMHz
	}
	return targets
}
