package pipeline

import (
	"math"

	"mcd/internal/clock"
	"mcd/internal/workload"
)

// This file implements the sampled fidelity tier: SMARTS-style interval
// sampling with functional warming. Every opts.SampleEvery-th control
// interval is simulated cycle by cycle; the intervals between them are
// fast-forwarded analytically. During a fast-forward the workload stream
// keeps flowing — caches, the branch predictor and the BTB are updated
// with every instruction's real accesses (functional warming), so the
// next detailed interval starts against trained structures — but no
// cycles execute. Time, energy and the controller's occupancy view for
// the skipped interval are extrapolated from the most recent detailed
// interval, rescaled to the current frequency and voltage operating
// point.
//
// The pipeline is frozen, not drained, across a skip: in-flight ROB, IQ
// and LSQ entries keep their (now stale) completion times and burst
// through issue and retirement when detail resumes, so detailed intervals
// never start from an artificially empty machine. The instructions
// consumed functionally never enter the pipeline; their seqs are a gap in
// the dispatch stream, which the completion ring treats as ancient
// history (ready) and the ROB's completion lookup handles with a bounded
// fallback scan.

// sampler is the sampled tier's part of the run state, embedded in
// runState so warm capture and restore copy it with the rest. Only
// sampled runs (opts.SampleEvery > 1) write it.
type sampler struct {
	// skipPending counts the control intervals scheduled for analytical
	// fast-forward before the next detailed one; detail seeds the
	// fast-forward model with the most recent detailed interval.
	skipPending int
	detail      detailModel
	// ivStartEnergy, ivStartClkPJ and ivStartEv anchor each domain's
	// energy and clock energy and the cumulative event counters (L1
	// misses, L2 misses, branch recoveries) at the interval start (see
	// anchorInterval): the fast-forward model calibrates a penalty per
	// event from each detailed interval's deltas and prices the skipped
	// intervals by the events functional warming observes in them.
	ivStartEnergy [clock.NumControllable]float64
	ivStartClkPJ  [clock.NumControllable]float64
	ivStartEv     [3]uint64
	// The err accumulators collect per-detailed-interval CPI/EPI samples
	// for the confidence bounds Finish reports.
	errCPI     errAcc
	errEPI     errAcc
	detailedIv int
	sampledIv  int
	// ctrlPrev/ctrlQuiet drive adaptive skip scheduling: the last targets
	// the controller commanded, and how many consecutive observations made
	// no attack-sized move (see noteTargets). Skips are only scheduled
	// once the controller has been quiet for a couple of observations, so
	// reactive phases run detailed and quiet phases fast-forward.
	ctrlPrev  [clock.NumControllable]float64
	ctrlQuiet int
	// stretchPenSum/stretchPenN accumulate the per-interval (full-interval
	// normalized) warming penalties of the current skip stretch, feeding
	// the penalty-basis ratio calibration (detailModel.rho) at the next
	// detailed interval.
	stretchPenSum float64
	stretchPenN   int
	// walkS/walkOff memoize the sampling-offset random walk (a pure
	// function of the stratum index; see sampleOffset), so a warm
	// snapshot may carry them along without changing any result.
	walkS   int
	walkOff int
}

// stepSampled is StepIntervals at sampled fidelity, a loop above the
// exact loop: a pending skip fast-forwards one interval, and otherwise
// the exact loop runs to the next emission. Only an emission schedules
// skips, so the exact loop never has to test for them.
func (c *Core) stepSampled(target int) {
	for c.advancing(target) {
		if c.skipPending > 0 {
			c.fastForwardInterval()
			continue
		}
		c.stepExact(c.emitted + 1)
	}
}

// anchorInterval records the counters the fast-forward model takes
// per-interval deltas of, at the start of the interval now opening.
func (c *Core) anchorInterval() {
	for d := 0; d < clock.NumControllable; d++ {
		c.ivStartEnergy[d] = c.meter.DomainPJ(clock.Domain(d))
		c.ivStartClkPJ[d] = c.meter.DomainClockPJ(clock.Domain(d))
	}
	c.ivStartEv = c.eventCounts()
}

// detailModel is the fast-forward model's seed: the most recent detailed
// interval's duration, per-domain cycle shares, operating point, energy
// and occupancy view, plus the calibrated event-penalty model.
//
// The duration model is event-driven rather than a flat extrapolation:
// functional warming observes every skipped instruction's cache misses
// and branch recoveries, so a skipped interval's stall budget is known
// even though no cycles execute. Each detailed interval calibrates
//
//	cycles = ideal + alpha·penalty
//
// where ideal = instructions/DecodeWidth, penalty is the interval's
// miss/recovery events weighted by their architectural latencies (L2Lat,
// MemLatPS, MispredictPenalty), and alpha absorbs everything the event
// counts do not see (overlap, queueing, sync-window crossings). Skipped
// intervals then price their own observed events with the same alpha,
// which tracks interval-scale phase changes (a memory-bound burst, a
// mispredict storm) that a flat model aliases away. When a detailed
// interval has no penalty events to calibrate on, alpha is negative and
// the fast-forward falls back to flat extrapolation.
type detailModel struct {
	valid bool
	dtPS  float64
	tickW [clock.NumControllable]float64 // per-domain share of domain cycles
	freq  [clock.NumControllable]float64 // effective frequency during the interval
	volt  [clock.NumControllable]float64 // supply voltage at the interval's end
	engPJ [clock.NumControllable]float64 // per-domain energy of the interval
	util  [clock.NumControllable]float64
	qavg  [clock.NumControllable]float64

	perPS   float64 // cycle-share-weighted picoseconds per cycle
	alpha   float64 // marginal stall cycles per penalty cycle (<0: uncalibrated)
	base    float64 // penalty-free cycles per full interval (ideal + dependency stalls)
	lastCyc float64 // the last detailed interval's cycle count
	lastPen float64 // the last detailed interval's penalty cycles
	// rho corrects the measurement-basis mismatch between the two penalty
	// sources: detailed execution counts wrong-path events (speculative
	// refetches, BTB probes) in the same cumulative counters, functional
	// warming sees only the correct path, so a skipped interval's penalty
	// reads systematically low against the detailed-basis calibration.
	// rho tracks the observed skip/detailed penalty ratio (EMA over skip
	// stretches, both ends detailed-bracketed); the skip estimate divides
	// by it. Zero until first observed; an effective 1 until then.
	rho float64
	// gamma is each domain's time-proportional (clock) fraction of its
	// interval energy. It is per-domain because controllers drive the
	// domains' voltages apart, and a domain's clock/access split — not the
	// chip-wide aggregate — decides how its energy scales with estimated
	// time versus instruction count.
	gamma [clock.NumControllable]float64

	// Decayed least-squares accumulators behind (base, alpha): each
	// detailed interval contributes one (penalty, cycles) observation and
	// the fit cycles = base + alpha·penalty is solved over the recent
	// ones, newest weighted heaviest. The intercept keeps dependency and
	// structural stalls (invisible to the event counters) out of alpha; a
	// penalty spread too small to regress on degenerates to alpha = 0 with
	// base the smoothed cycle count — flat extrapolation.
	fitN, fitX, fitY, fitXX, fitXY float64
}

// alphaDecay is the per-detailed-interval decay of the model fit: ~3-4
// recent intervals carry most of the weight, so the coefficients adapt
// across program phases without tracking single-interval noise.
const alphaDecay = 0.7

// rhoSmoothing is the per-stretch EMA coefficient of the penalty-basis
// ratio (detailModel.rho): the ratio is a structural property of the
// workload's wrong-path behaviour, so it moves slowly.
const rhoSmoothing = 0.3

// errAcc accumulates per-detailed-interval metric samples for the 95%
// confidence bounds the sampled tier reports.
type errAcc struct {
	n, sum, sumSq float64
}

func (a *errAcc) add(x float64) {
	a.n++
	a.sum += x
	a.sumSq += x * x
}

// rel95 returns the 95% confidence half-width of the mean, relative to
// the mean (1.96·stderr/mean), or 0 with fewer than two samples.
func (a *errAcc) rel95() float64 {
	if a.n < 2 || a.sum <= 0 {
		return 0
	}
	mean := a.sum / a.n
	variance := (a.sumSq - a.n*mean*mean) / (a.n - 1)
	if variance <= 0 {
		return 0
	}
	return 1.96 * math.Sqrt(variance/a.n) / mean
}

// eventCounts reads the cumulative microarchitectural event counters the
// fast-forward penalty model is built on: combined L1 misses (I + D), L2
// misses, and branch recoveries (mispredicts plus BTB misses on taken
// branches — both restart fetch in the detailed front end).
func (c *Core) eventCounts() [3]uint64 {
	bs := c.pred.Stats()
	return [3]uint64{
		c.hier.L1I.Stats().Misses + c.hier.L1D.Stats().Misses,
		c.hier.L2C.Stats().Misses,
		bs.Mispredict + bs.BTBLookups - bs.BTBHits,
	}
}

// penaltyCycles prices a batch of events in front-end cycles: L1 misses
// pay the L2 access latency, L2 misses additionally pay the (fixed-time)
// memory latency converted at perPS, branch recoveries pay the mispredict
// penalty. Overlap between concurrent misses is not modeled here — the
// calibrated alpha absorbs it.
func (c *Core) penaltyCycles(perPS float64, ev, since [3]uint64) float64 {
	var d [3]float64
	for i := range ev {
		if ev[i] > since[i] {
			d[i] = float64(ev[i] - since[i])
		}
	}
	p := d[0]*float64(c.cfg.L2Lat) + d[2]*float64(c.cfg.MispredictPenalty)
	if perPS > 0 {
		p += d[1] * c.cfg.MemLatPS / perPS
	}
	return p
}

// noteDetailInterval seeds the fast-forward model from the detailed
// interval ending at t, before emit rolls the accumulators over.
func (c *Core) noteDetailInterval(t float64, ivLen uint64) {
	m := &c.detail
	dt := t - c.ivStart
	m.valid = dt > 0
	m.dtPS = dt
	var ticks float64
	for d := 0; d < clock.NumControllable; d++ {
		ticks += c.ivTicks[d]
	}
	var ePJ float64
	for d := 0; d < clock.NumControllable; d++ {
		if ticks > 0 {
			m.tickW[d] = c.ivTicks[d] / ticks
		} else {
			m.tickW[d] = 1.0 / clock.NumControllable
		}
		m.freq[d] = c.curFreq[d]
		m.volt[d] = c.regs[d].Voltage()
		m.engPJ[d] = c.meter.DomainPJ(clock.Domain(d)) - c.ivStartEnergy[d]
		ePJ += m.engPJ[d]
	}

	// Calibrate the event-penalty model: how many effective stall cycles
	// this interval paid per modeled penalty cycle.
	m.perPS = 0
	for d := 0; d < clock.NumControllable; d++ {
		if m.freq[d] > 0 {
			m.perPS += m.tickW[d] * 1e6 / m.freq[d]
		}
	}
	m.alpha = -1
	if m.perPS > 0 && dt > 0 && c.cfg.DecodeWidth > 0 {
		pen := c.penaltyCycles(m.perPS, c.eventCounts(), c.ivStartEv)
		cyc := dt / m.perPS
		// Update the warming/detailed penalty-basis ratio from the stretch
		// of skips this detailed interval closes, comparing their mean
		// functional-warming penalty against the bracketing detailed ones.
		if c.stretchPenN > 0 && m.lastPen > 0 && pen > 0 {
			obs := (c.stretchPenSum / float64(c.stretchPenN)) / ((m.lastPen + pen) / 2)
			if obs < 0.5 {
				obs = 0.5
			} else if obs > 2 {
				obs = 2
			}
			if m.rho == 0 {
				m.rho = obs
			} else {
				m.rho += rhoSmoothing * (obs - m.rho)
			}
			if m.rho < 0.7 {
				m.rho = 0.7
			} else if m.rho > 1.3 {
				m.rho = 1.3
			}
		}
		c.stretchPenSum, c.stretchPenN = 0, 0
		m.fitN = alphaDecay*m.fitN + 1
		m.fitX = alphaDecay*m.fitX + pen
		m.fitY = alphaDecay*m.fitY + cyc
		m.fitXX = alphaDecay*m.fitXX + pen*pen
		m.fitXY = alphaDecay*m.fitXY + pen*cyc
		alpha := 0.0
		varX := m.fitXX - m.fitX*m.fitX/m.fitN
		if den := varX; den > 1e-6*m.fitXX {
			alpha = (m.fitXY - m.fitX*m.fitY/m.fitN) / den
		}
		// The penalty prices every event at its full serialized latency, so
		// the marginal stall per penalty cycle lives in [0, 1] (overlap can
		// only shrink it); a slope outside that range is single-phase
		// overfit, and the intercept is recomputed against the clamp.
		if alpha < 0 {
			alpha = 0
		} else if alpha > 1 {
			alpha = 1
		}
		base := (m.fitY - alpha*m.fitX) / m.fitN
		if ideal := float64(ivLen) / float64(c.cfg.DecodeWidth); base < ideal {
			base = ideal
		}
		m.alpha, m.base = alpha, base
		m.lastCyc, m.lastPen = cyc, pen
	}
	// Split each domain's interval energy into a time-proportional
	// (clock) part and an activity-proportional (access) part, so a
	// skipped interval's estimate tracks both its estimated duration and
	// its instruction count.
	for d := 0; d < clock.NumControllable; d++ {
		m.gamma[d] = 0
		if m.engPJ[d] > 0 {
			g := (c.meter.DomainClockPJ(clock.Domain(d)) - c.ivStartClkPJ[d]) / m.engPJ[d]
			if g < 0 {
				g = 0
			} else if g > 1 {
				g = 1
			}
			m.gamma[d] = g
		}
	}

	if c.marked {
		c.detailedIv++
		if dt > 0 {
			c.errCPI.add(dt / 1000 / float64(ivLen))
			c.errEPI.add(ePJ / float64(ivLen))
		}
	}
}

// noteTargets tracks controller activity for adaptive skip scheduling.
// An attack-sized retarget (more than 1% in one observation — decay moves
// are an order of magnitude smaller) marks the controller active;
// scheduleSkips keeps execution detailed until the controller has been
// quiet for ctrlQuietMin consecutive observations. A reactive controller
// therefore runs its transients against measured data and only
// fast-forwards through the quiet phases its replayed view (frozen
// utilization → decay) models faithfully.
func (c *Core) noteTargets(targets [clock.NumControllable]float64) {
	active := false
	for d := 0; d < clock.NumControllable; d++ {
		t := targets[d]
		if t <= 0 {
			continue // zero: hold, not a move
		}
		if p := c.ctrlPrev[d]; p > 0 {
			if r := t / p; r < 1/ctrlMoveRatio || r > ctrlMoveRatio {
				active = true
			}
		}
		c.ctrlPrev[d] = t
	}
	if active {
		c.ctrlQuiet = 0
	} else {
		c.ctrlQuiet++
	}
}

const (
	// ctrlMoveRatio is the single-observation retarget ratio that counts
	// as controller activity.
	ctrlMoveRatio = 1.01
	// ctrlQuietMin is how many consecutive quiet observations re-arm skip
	// scheduling after activity.
	ctrlQuietMin = 2
)

// sampleOffset picks which interval of stratum s (a block of SampleEvery
// consecutive intervals) runs detailed. The offset follows a seed-keyed
// reflected ±1 random walk across strata (splitmix64 finalizer per
// step), fully deterministic so re-runs of a spec stay byte-identical.
// The walk shape is a deliberate compromise between two error sources:
// consecutive samples stay N−1..N+1 intervals apart — near-uniform
// spacing, which the strongly local fast-forward extrapolation needs
// (an i.i.d. stratified draw lets gaps reach 2N−1 and measurably hurts
// phase-structured workloads) — while the sampling phase slowly diffuses
// across all residues, so program structure periodic at a multiple of
// the interval length cannot alias with a fixed stride.
func (c *Core) sampleOffset(s int) int {
	if c.walkS < 0 || s < c.walkS { // fresh run or restart behind the memo
		c.walkS, c.walkOff = 0, c.opts.SampleEvery/2
	}
	for c.walkS < s {
		c.walkS++
		x := uint64(c.cfg.Seed)*0x9E3779B97F4A7C15 + uint64(c.walkS)
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		switch x % 3 {
		case 0:
			if c.walkOff > 0 {
				c.walkOff--
			}
		case 2:
			if c.walkOff < c.opts.SampleEvery-1 {
				c.walkOff++
			}
		}
	}
	return c.walkOff
}

// nextDetailIndex returns the first interval index ≥ i chosen for
// detailed execution: each stratum's chosen slot, or the following
// stratum's when i has already passed it (extra detailed intervals — a
// controller transient, the warmup mark — never cost a stratum its
// sample).
func (c *Core) nextDetailIndex(i int) int {
	n := c.opts.SampleEvery
	for {
		s := i / n
		if j := s*n + c.sampleOffset(s); j >= i {
			return j
		}
		i = (s + 1) * n
	}
}

// scheduleSkips decides, at a detailed interval boundary, how many of the
// upcoming intervals to fast-forward: everything up to the next stratum's
// chosen detailed interval, except that skips never cross the warmup mark
// (the mark must fire inside detailed execution, with a retire-width
// guard for boundary overshoot) and never swallow the run's final
// interval, so every run ends in detail. Nothing is scheduled while the
// next boundary is already behind the retire count: with an interval
// shorter than the retire width one front-end cycle can cross two
// boundaries, and a fast-forward's budget (nextIvAt − retired) would
// underflow. Nor is anything scheduled until an observing controller has
// been quiet for ctrlQuietMin observations (see noteTargets).
func (c *Core) scheduleSkips() {
	if !c.detail.valid || c.retired >= c.nextIvAt ||
		c.opts.Controller != nil && c.marked && c.ctrlQuiet < ctrlQuietMin {
		c.skipPending = 0
		return
	}
	ivLen := c.opts.IntervalLength
	next := c.nextDetailIndex(c.ivIndex)
	k := 0
	for c.ivIndex+k < next {
		end := c.nextIvAt + uint64(k)*ivLen
		if !c.marked && end+uint64(c.cfg.RetireWidth) > c.opts.Warmup {
			break
		}
		if end+ivLen > c.total {
			break
		}
		k++
	}
	c.skipPending = k
}

// fastForwardInterval advances the run across one control interval
// without executing cycles: the interval's instructions are consumed
// functionally (warming caches and predictors), its duration is estimated
// from the last detailed interval rescaled by per-domain frequency
// ratios, regulators slew and clocks jump across the estimated span, and
// the interval's energy is injected as the detailed interval's per-domain
// energy rescaled by (V/V_detail)².
func (c *Core) fastForwardInterval() {
	ivLen := c.opts.IntervalLength
	m := &c.detail
	ev0 := c.eventCounts()

	// Functional warming over the interval's instruction budget. A
	// peeked-but-unfetched instruction is consumed first so the stream
	// stays gapless.
	need := c.nextIvAt - c.retired
	var done uint64
	if c.havePend {
		c.warmInstr(&c.pending)
		c.havePend = false
		done++
	}
	for done < need && !c.genDone {
		if !c.gen.NextWarm(&c.pending) { // warming reads no dependencies
			c.genDone = true
			break
		}
		c.warmInstr(&c.pending)
		done++
	}
	c.retired += done
	if done < need {
		// Workload exhausted mid-skip: abandon sampling and let the
		// detailed loop drain what remains in flight.
		c.skipPending = 0
		return
	}

	// Operating-point scale: the ratio of each domain's detailed-interval
	// frequency to its current target, weighted by cycle share (a slower
	// domain stretches its share of the time).
	var scale float64
	for d := 0; d < clock.NumControllable; d++ {
		f := c.regs[d].TargetMHz()
		if f > 0 && m.freq[d] > 0 {
			scale += m.tickW[d] * m.freq[d] / f
		} else {
			scale += m.tickW[d]
		}
	}
	// Estimated duration. With a calibrated event model, this interval's
	// own miss/recovery events (observed by the functional warming above)
	// price its stall time, so phase changes between detailed samples move
	// the estimate; without calibration, flat extrapolation of the last
	// detailed interval.
	var dt float64
	if m.alpha >= 0 {
		pen := c.penaltyCycles(m.perPS, c.eventCounts(), ev0)
		frac := float64(done) / float64(ivLen)
		if frac > 0 {
			c.stretchPenSum += pen / frac
			c.stretchPenN++
		}
		// The warming-observed penalty is rescaled onto the detailed
		// measurement basis before entering the delta (see detailModel.rho).
		effPen := pen / frac
		if m.rho > 0 {
			effPen /= m.rho
		}
		// Flat extrapolation of the last detailed interval, corrected by
		// the marginal cost of this interval's own event delta: when the
		// skip's misses and mispredicts match the last detailed interval's
		// the correction vanishes, so the estimator inherits flat's local
		// accuracy and only moves on evidence of a phase change.
		cyc := (m.lastCyc + m.alpha*(effPen-m.lastPen)) * frac
		if ideal := float64(done) / float64(c.cfg.DecodeWidth); cyc < ideal {
			cyc = ideal
		}
		dt = m.perPS * cyc * scale
	} else {
		dt = m.dtPS * scale * float64(done) / float64(ivLen)
	}
	newNow := c.now + dt

	// The pipeline is frozen across the skip: shift every in-flight
	// timestamp (issue-queue visibility, ROB/LSQ/ring completion, the
	// I-cache fill stall) along with the clock, so detail resumes
	// mid-steady-state. Without this the stale entries all read as ready
	// at once and the first detailed interval measures an unrepresentative
	// burst drain — which the extrapolation then spreads over every
	// skipped interval.
	c.iiq.ShiftTimes(dt)
	c.fiq.ShiftTimes(dt)
	c.lsq.ShiftTimes(dt)
	c.rob.ShiftTimes(dt)
	c.ring.ShiftTimes(dt)
	c.fetchStall += dt
	c.wakeScans() // covers the period changes below too

	actRatio := float64(done) / float64(ivLen)
	for d := 0; d < clock.NumControllable; d++ {
		f0 := c.curFreq[d]
		f := c.regs[d].Step(dt)
		// Trapezoidal frequency integral across the slew.
		c.freqIntegral[d] += 0.5 * (f0 + f) * dt
		if f != c.curFreq[d] {
			c.curFreq[d] = f
			c.clks[d].SetFrequencyMHz(f)
			c.wake.Periods[d] = c.clks[d].PeriodPS()
		}
		c.clks[d].FastForwardTo(newNow)
		c.last[d] = newNow
		// Energy: the clock fraction follows elapsed cycles (estimated
		// time × current frequency), the access fraction follows the
		// instruction count; both at the current voltage.
		clkRatio := actRatio
		if m.dtPS > 0 {
			clkRatio = dt / m.dtPS
			if f > 0 && m.freq[d] > 0 {
				clkRatio *= f / m.freq[d]
			}
		}
		e := m.engPJ[d] * (m.gamma[d]*clkRatio + (1-m.gamma[d])*actRatio)
		if v := c.regs[d].Voltage(); m.volt[d] > 0 {
			r := v / m.volt[d]
			e *= r * r
		}
		c.meter.Inject(clock.Domain(d), e)
	}
	c.sched.Refresh()
	c.now = newNow
	c.lastRetire = newNow

	if c.marked {
		c.sampledIv++
	}
	// The controller sees the last detailed interval's occupancy view and
	// the extrapolated IPC.
	c.emit(IntervalView{QueueUtil: m.util, QueueAvg: m.qavg, Estimated: true}, newNow, dt)
	if c.skipPending > 0 { // emit may abandon the stretch
		c.skipPending--
	}
}

// warmInstr updates the caches, branch predictor and BTB with one
// functionally consumed instruction, mirroring the detailed front end's
// access pattern (one I-cache access per fetch-block transition, a
// predictor update plus BTB lookup/install per branch, one D-cache access
// per memory op) without executing cycles or charging per-access energy —
// the fast-forward's energy is injected analytically.
func (c *Core) warmInstr(in *workload.Instr) {
	blk := in.PC>>6 + 1
	if blk != c.fetchBlock {
		c.fetchBlock = blk
		c.hier.Inst(in.PC)
	}
	switch {
	case in.Class == workload.Branch:
		c.pred.Update(in.PC, in.Taken)
		if in.Taken {
			c.pred.Target(in.PC)
			c.pred.SetTarget(in.PC, in.Target)
		}
	case in.Class.Memory():
		c.hier.Data(in.Addr)
	}
}
