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
	"mcd/internal/xrand"
)

// WarmState is a complete snapshot of a mid-run core, taken at a
// StepIntervals boundary during warmup so a sweep can warm each benchmark
// once and restore the state into every cell's core. A restored core is
// byte-identical to one that executed the prefix itself: every piece of
// mutable run state is captured — the plain-data run state as one value,
// the components as deep clones, and the workload generator's and the
// jitter sources' rng registers by value (see xrand.State) — so the
// resumed cycle stream is the same stream.
//
// Snapshots are only taken in sampled fidelity, where warmup runs
// uncontrolled (see RunOptions.SampleEvery) — the warmed state is then
// independent of the run's controller and safe to share across cells.
type WarmState struct {
	gen    workload.GenState
	regs   [clock.NumControllable]dvfs.Regulator
	clks   [clock.NumControllable]clock.State
	jitter [clock.NumControllable]xrand.State

	pred *branch.Predictor
	hier *cache.Hierarchy
	iiq  *queue.IssueQueue
	fiq  *queue.IssueQueue
	lsq  *queue.LSQ
	rob  *queue.ROB
	ring *queue.CompletionRing

	meter power.Meter

	run runState

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
		run:   c.runState,
	}
	for d := 0; d < clock.NumControllable; d++ {
		w.regs[d] = *c.regs[d]
		w.clks[d] = c.clks[d].State()
		if c.jsrc[d] != nil {
			w.jitter[d] = c.jsrc[d].State
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
	for d := 0; d < clock.NumControllable; d++ {
		*c.regs[d] = w.regs[d]
		c.clks[d].SetState(w.clks[d])
		c.wake.Periods[d] = c.clks[d].PeriodPS()
		if c.jsrc[d] != nil {
			c.jsrc[d].State = w.jitter[d]
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
	c.runState = w.run
	c.wakeScans()
	c.sched.Refresh()

	if w.intervals != nil {
		c.intervals = append(c.intervals[:0], w.intervals...)
	}
}
