package pipeline

import (
	"mcd/internal/branch"
	"mcd/internal/cache"
	"mcd/internal/clock"
	"mcd/internal/dvfs"
	"mcd/internal/power"
	"mcd/internal/queue"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// WarmState is a complete snapshot of a mid-run core, taken at a
// StepIntervals boundary during warmup so a sweep can warm each benchmark
// once and restore the state into every cell's core. A restored core is
// byte-identical to one that executed the prefix itself: every piece of
// mutable run state is captured, including the workload generator's rng
// position and the jitter rng positions (both counted sources, see
// xrand), so the resumed cycle stream is the same stream.
//
// Snapshots are only taken in sampled fidelity, where warmup runs
// uncontrolled (see RunOptions.SampleEvery) — the warmed state is then
// independent of the run's controller and safe to share across cells.
type WarmState struct {
	gen    workload.GenState
	regs   [clock.NumControllable]dvfs.Regulator
	clks   [clock.NumControllable]clock.State
	jcalls [clock.NumControllable]uint64

	pred *branch.Predictor
	hier *cache.Hierarchy
	iiq  *queue.IssueQueue
	fiq  *queue.IssueQueue
	lsq  *queue.LSQ
	rob  *queue.ROB
	ring *queue.CompletionRing

	meter power.Meter

	last         [clock.NumControllable]float64
	curFreq      [clock.NumControllable]float64
	periods      [clock.NumControllable]float64
	occupSum     [clock.NumControllable]float64
	ivTicks      [clock.NumControllable]float64
	freqIntegral [clock.NumControllable]float64

	intRegsFree int
	fpRegsFree  int

	pending    workload.Instr
	havePend   bool
	genDone    bool
	fetchStall float64
	branchSeq  int64
	fetchBlock uint64

	retired    uint64
	lastRetire float64
	now        float64
	emitted    int

	marked     bool
	markTime   float64
	markEnergy [clock.NumDomains]float64

	ivStart  float64
	ivIndex  int
	nextIvAt uint64

	skipPending   int
	detail        detailModel
	ivStartEnergy [clock.NumControllable]float64
	ivStartEv     [3]uint64
	ivStartClkPJ  [clock.NumControllable]float64
	errCPI        errAcc
	errEPI        errAcc
	detailedIv    int
	sampledIv     int
	ctrlPrev      [clock.NumControllable]float64
	ctrlQuiet     int
	stretchPenSum float64
	stretchPenN   int

	intervals []stats.Interval
}

// CaptureWarm snapshots the core's complete run state. It returns nil
// when the workload generator does not support checkpointing, or when
// the run has already halted (a halted prefix has nothing to resume).
func (c *Core) CaptureWarm() *WarmState {
	ck, ok := c.gen.(workload.Checkpointer)
	if !ok || c.halted {
		return nil
	}
	w := &WarmState{
		gen:   ck.Checkpoint(),
		pred:  c.pred.Clone(),
		hier:  c.hier.Clone(),
		iiq:   c.iiq.Clone(),
		fiq:   c.fiq.Clone(),
		lsq:   c.lsq.Clone(),
		rob:   c.rob.Clone(),
		ring:  c.ring.Clone(),
		meter: *c.meter,

		last:         c.last,
		curFreq:      c.curFreq,
		periods:      c.periods,
		occupSum:     c.occupSum,
		ivTicks:      c.ivTicks,
		freqIntegral: c.freqIntegral,

		intRegsFree: c.intRegsFree,
		fpRegsFree:  c.fpRegsFree,

		pending:    c.pending,
		havePend:   c.havePend,
		genDone:    c.genDone,
		fetchStall: c.fetchStall,
		branchSeq:  c.branchSeq,
		fetchBlock: c.fetchBlock,

		retired:    c.retired,
		lastRetire: c.lastRetire,
		now:        c.now,
		emitted:    c.emitted,

		marked:     c.marked,
		markTime:   c.markTime,
		markEnergy: c.markEnergy,

		ivStart:  c.ivStart,
		ivIndex:  c.ivIndex,
		nextIvAt: c.nextIvAt,

		skipPending:   c.skipPending,
		detail:        c.detail,
		ivStartEnergy: c.ivStartEnergy,
		ivStartEv:     c.ivStartEv,
		ivStartClkPJ:  c.ivStartClkPJ,
		errCPI:        c.errCPI,
		errEPI:        c.errEPI,
		detailedIv:    c.detailedIv,
		sampledIv:     c.sampledIv,
		ctrlPrev:      c.ctrlPrev,
		ctrlQuiet:     c.ctrlQuiet,
		stretchPenSum: c.stretchPenSum,
		stretchPenN:   c.stretchPenN,
	}
	for d := 0; d < clock.NumControllable; d++ {
		w.regs[d] = *c.regs[d]
		w.clks[d] = c.clks[d].State()
		if c.jsrc[d] != nil {
			w.jcalls[d] = c.jsrc[d].Calls()
		}
	}
	if len(c.intervals) > 0 {
		w.intervals = append([]stats.Interval(nil), c.intervals...)
	}
	return w
}

// RestoreWarm restores a snapshot into a core that was just Start-ed with
// the same config and the same warmup-relevant options (workload profile,
// warmup, window, interval length, initial frequencies, sample cadence)
// as the run the snapshot was captured from. After the restore the core
// is byte-identical to one that executed the warmup prefix itself; the
// warm-snapshot pin test asserts this across the controller registry.
func (c *Core) RestoreWarm(w *WarmState) {
	c.gen.(workload.Checkpointer).Restore(w.gen)
	jitter := c.cfg.JitterPS
	if c.cfg.SingleClock {
		jitter = 0
	}
	for d := 0; d < clock.NumControllable; d++ {
		*c.regs[d] = w.regs[d]
		c.clks[d].SetState(w.clks[d])
		if jitter > 0 && c.jsrc[d] != nil {
			c.jsrc[d].Restore(c.cfg.Seed+int64(d)*7919, w.jcalls[d])
		}
	}
	c.pred.CopyFrom(w.pred)
	c.hier.CopyFrom(w.hier)
	c.iiq.CopyFrom(w.iiq)
	c.fiq.CopyFrom(w.fiq)
	c.lsq.CopyFrom(w.lsq)
	c.rob.CopyFrom(w.rob)
	c.ring.CopyFrom(w.ring)
	*c.meter = w.meter

	c.last = w.last
	c.curFreq = w.curFreq
	c.periods = w.periods
	c.occupSum = w.occupSum
	c.ivTicks = w.ivTicks
	c.freqIntegral = w.freqIntegral
	c.wake.Periods = c.periods
	c.wakeScans()
	c.sched.Refresh()

	c.intRegsFree = w.intRegsFree
	c.fpRegsFree = w.fpRegsFree

	c.pending = w.pending
	c.havePend = w.havePend
	c.genDone = w.genDone
	c.fetchStall = w.fetchStall
	c.branchSeq = w.branchSeq
	c.fetchBlock = w.fetchBlock

	c.retired = w.retired
	c.lastRetire = w.lastRetire
	c.now = w.now
	c.emitted = w.emitted

	c.marked = w.marked
	c.markTime = w.markTime
	c.markEnergy = w.markEnergy

	c.ivStart = w.ivStart
	c.ivIndex = w.ivIndex
	c.nextIvAt = w.nextIvAt

	c.skipPending = w.skipPending
	c.detail = w.detail
	c.ivStartEnergy = w.ivStartEnergy
	c.ivStartEv = w.ivStartEv
	c.ivStartClkPJ = w.ivStartClkPJ
	c.errCPI = w.errCPI
	c.errEPI = w.errEPI
	c.detailedIv = w.detailedIv
	c.sampledIv = w.sampledIv
	c.ctrlPrev = w.ctrlPrev
	c.ctrlQuiet = w.ctrlQuiet
	c.stretchPenSum = w.stretchPenSum
	c.stretchPenN = w.stretchPenN

	if w.intervals != nil {
		c.intervals = append(c.intervals[:0], w.intervals...)
	}
}
