package pipeline

import (
	"fmt"
	"math"

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

// execDomain maps an instruction class to the domain that executes it.
// Branches resolve on the integer ALUs, as in the Alpha 21264.
func execDomain(c workload.Class) clock.Domain {
	switch {
	case c.FP():
		return clock.FloatingPoint
	case c.Memory():
		return clock.LoadStore
	default:
		return clock.Integer
	}
}

// writesInt reports whether the class allocates an integer rename register.
func writesInt(c workload.Class) bool {
	return c == workload.IntALU || c == workload.IntMul || c == workload.Load
}

// writesFP reports whether the class allocates an FP rename register.
func writesFP(c workload.Class) bool { return c.FP() }

// Issue-pipe class sets. Dispatch routes only IntALU, IntMul and Branch
// to the integer queue and only the FP classes to the FP queue, so these
// masks reproduce the per-pipe predicates (e.g. "anything but IntMul" on
// the integer ALUs) without a per-entry indirect call in the CAM scan.
var (
	intALUClasses = queue.MaskOf(workload.IntALU, workload.Branch)
	intMulClasses = queue.MaskOf(workload.IntMul)
	fpALUClasses  = queue.MaskOf(workload.FPAdd)
	fpMulClasses  = queue.MaskOf(workload.FPMul, workload.FPDiv)
)

// Core is one simulated processor instance. Construct with New, then
// either Run once, or Start once, advance with StepIntervals and read the
// Result from Finish. A finished core can be recycled for another run
// with Reset — table-sized structures (predictor, caches, queues, the
// completion ring) are reused instead of reallocated, which is what the
// harness's core pool rides on.
type Core struct {
	cfg  Config
	gen  workload.Generator
	opts RunOptions

	scale *dvfs.Scale
	sched *clock.Scheduler
	regs  [clock.NumControllable]*dvfs.Regulator
	clks  [clock.NumControllable]*clock.Clock
	jsrc  [clock.NumControllable]*xrand.Counting // jitter sources; warm snapshots copy their states

	// wake is the per-tick wakeup context handed to the issue-queue CAM
	// scans. Periods holds each domain clock's current period — the same
	// float64 the clock holds, so every visibility test reads it instead
	// of chasing clock pointers — and Ring is the completion ring.
	wake queue.Wakeup
	// quiet holds each domain's quiet-until bound. For an exec domain:
	// the issue structure's last scan selected nothing, and none of its
	// entries can pass the readiness test before this time. For the front
	// end: its last tick retired, emitted, resolved and fetched nothing,
	// and neither the ROB head nor fetch can move before this time (see
	// feQuietUntil). Ticks before it skip straight to the idle-cycle
	// accounting. Every readiness input — ring dispatch and completion,
	// queue push, LSQ retire, a period change, and any bulk state change
	// (ShiftTimes, RestoreWarm, Start) — resets the affected bounds to
	// −Inf through wakeScans. Skipping is exact: each bound is the tick's
	// own comparison operand, so t < quiet[d] means that tick would do
	// nothing. The minimum over all four is the idle-stretch horizon
	// (idleStretch).
	quiet [clock.NumControllable]float64

	meter *power.Meter
	pred  *branch.Predictor
	hier  *cache.Hierarchy

	iiq  *queue.IssueQueue
	fiq  *queue.IssueQueue
	lsq  *queue.LSQ
	rob  *queue.ROB
	ring *queue.CompletionRing

	// Stepping state: Run is Start + StepIntervals(-1) + Finish, and the
	// session API (internal/sim.Session) drives the same three entry
	// points interval by interval.
	total  uint64 // retire target (warmup + window)
	halted bool   // the loop can no longer advance (done, exhausted, or Halt)

	runState

	selBuf  []queue.Entry
	selBuf2 []queue.Entry
	lsBuf   []queue.LSQIssue

	intervals []stats.Interval
}

// runState is the part of a core's run state that is plain data: every
// field is a scalar, an array, or a struct of those, so assigning the
// value copies all of it (TestRunStateIsPlainData guards this). Reset
// assigns freshRunState, and a warm snapshot captures and restores the
// run with one assignment each way. Object references — components, the
// wakeup context, quiet bounds, scratch buffers — stay in Core with
// their own Clone/CopyFrom handling. Core embeds it, so the hot loop
// reads c.retired and the rest directly.
type runState struct {
	last [clock.NumControllable]float64

	// curFreq mirrors each domain clock's programmed frequency so the
	// per-edge regulator step only reprograms the clock (a division plus
	// an edge-cache refresh) when the frequency actually moved.
	curFreq [clock.NumControllable]float64

	intRegsFree int
	fpRegsFree  int

	pending    workload.Instr
	havePend   bool
	genDone    bool
	fetchStall float64 // no fetch before this time (I-cache miss service)
	branchSeq  int64   // unresolved mispredicted branch (-1: none)
	fetchBlock uint64  // current I-cache block (+1; 0 = none)

	retired    uint64
	lastRetire float64
	now        float64 // current simulated time
	emitted    int     // control intervals emitted since Start (warmup included)

	// Warmup bookkeeping: measurement starts at the mark.
	marked     bool
	markTime   float64
	markEnergy [clock.NumDomains]float64

	// Interval accumulation.
	ivStart  float64
	ivIndex  int
	occupSum [clock.NumControllable]float64
	ivTicks  [clock.NumControllable]float64
	nextIvAt uint64

	freqIntegral [clock.NumControllable]float64

	// The sampled fidelity tier's state (see sampled.go); an exact run
	// never writes it.
	sampler
}

// freshRunState is the run state of a newly constructed core. The
// sentinels: branchSeq −1 is "no unresolved mispredict", walkS −1 the
// sampling walk's "not started" (see sampleOffset).
func freshRunState() runState { return runState{branchSeq: -1, sampler: sampler{walkS: -1}} }

// New builds a core over the given workload generator.
func New(cfg Config, gen workload.Generator) *Core {
	return &Core{cfg: cfg, gen: gen, runState: freshRunState()}
}

// Reset recycles a finished core for a new run over cfg and gen: all run
// state is returned to the freshly constructed state, but component
// allocations (predictor and cache tables, queues, the completion ring,
// clocks and regulators) are reused by the following Start. A Reset core
// produces byte-identical results to a New one — the byte-identity suite
// pins this across the whole controller registry.
func (c *Core) Reset(cfg Config, gen workload.Generator) {
	c.cfg, c.gen = cfg, gen
	c.opts = RunOptions{}
	c.total = 0
	c.halted = false
	c.runState = freshRunState()
	// The previous Result owns the recorded intervals; never reuse them.
	c.intervals = nil
}

// Release drops the finished run's object references — the generator,
// the options (controller and observer hooks), and the recorded
// intervals — so an idle pooled core retains none of the previous run's
// object graph. Reset + Start rebuild all of it; only Finish/Progress
// become unusable until then.
func (c *Core) Release() {
	c.gen = nil
	c.opts = RunOptions{}
	c.intervals = nil
}

// Run simulates until opts.Window instructions retire (or the workload is
// exhausted) and returns the measurements. It is exactly
// Start + StepIntervals(-1) + Finish, so a stepped run produces
// byte-identical measurements: pausing between loop iterations touches
// no simulation state.
func (c *Core) Run(opts RunOptions) stats.Result {
	c.Start(opts)
	c.StepIntervals(-1)
	return c.Finish()
}

// Start initializes the core for stepped execution: clocks, regulators,
// queues and accumulators are built (or, after Reset, reused in place),
// but no cycle executes until StepIntervals.
func (c *Core) Start(opts RunOptions) {
	c.opts = opts
	if c.opts.IntervalLength == 0 {
		c.opts.IntervalLength = DefaultIntervalLength
	}
	cfg := c.cfg

	if c.scale == nil {
		c.scale = dvfs.DefaultScale()
	}
	jitter := cfg.JitterPS
	if cfg.SingleClock {
		jitter = 0
	}
	var periods [clock.NumControllable]float64
	for d := 0; d < clock.NumControllable; d++ {
		f := opts.InitialFreqMHz[d]
		if f == 0 {
			f = cfg.MaxFreqMHz
		}
		if c.regs[d] == nil {
			c.regs[d] = dvfs.NewRegulator(c.scale, f, cfg.SlewNsPerMHz)
		} else {
			c.regs[d].Reset(f, cfg.SlewNsPerMHz)
		}
		// All PLLs derive from one reference oscillator, so domain clocks
		// start phase aligned; window violations then come from jitter
		// and inter-domain rate differences, the two penalty sources the
		// paper's clocking model describes.
		var jrng *xrand.Counting
		if jitter > 0 {
			seed := cfg.Seed + int64(d)*7919
			if c.jsrc[d] == nil {
				c.jsrc[d] = xrand.NewCounting(seed)
			} else {
				c.jsrc[d].Seed(seed)
			}
			jrng = c.jsrc[d]
		}
		if c.clks[d] == nil {
			c.clks[d] = clock.New(c.regs[d].CurrentMHz(), jitter, 0, jrng)
		} else {
			c.clks[d].Reset(c.regs[d].CurrentMHz(), jitter, 0, jrng)
		}
		c.curFreq[d] = c.clks[d].FrequencyMHz()
		periods[d] = c.clks[d].PeriodPS()
	}
	if c.sched == nil {
		c.sched = clock.NewScheduler(c.clks[:])
	} else {
		c.sched.Refresh()
	}

	if c.meter == nil {
		c.meter = power.NewMeter(power.DefaultParams(), !cfg.SingleClock)
	} else {
		c.meter.Reset(power.DefaultParams(), !cfg.SingleClock)
	}
	if c.pred == nil {
		c.pred = branch.New(branch.DefaultConfig())
	} else {
		c.pred.Reset()
	}
	if c.hier == nil {
		c.hier = cache.DefaultHierarchy()
	} else {
		c.hier.Reset()
	}
	if c.iiq == nil {
		c.iiq = queue.NewIssueQueue(cfg.IntIQSize)
	} else {
		c.iiq.Reset(cfg.IntIQSize)
	}
	if c.fiq == nil {
		c.fiq = queue.NewIssueQueue(cfg.FPIQSize)
	} else {
		c.fiq.Reset(cfg.FPIQSize)
	}
	if c.lsq == nil {
		c.lsq = queue.NewLSQ(cfg.LSQSize, cfg.CacheBlockBytes)
	} else {
		c.lsq.Reset(cfg.LSQSize, cfg.CacheBlockBytes)
	}
	if c.rob == nil {
		c.rob = queue.NewROB(cfg.ROBSize)
	} else {
		c.rob.Reset(cfg.ROBSize)
	}
	if c.ring == nil {
		c.ring = queue.NewCompletionRing(1024)
	} else {
		c.ring.Reset()
	}
	c.wake = queue.Wakeup{
		SingleClock:  cfg.SingleClock,
		SyncWindowPS: cfg.SyncWindowPS,
		Periods:      periods,
		Ring:         c.ring,
	}
	c.wakeScans()
	c.intRegsFree = cfg.IntRenameRegs
	c.fpRegsFree = cfg.FPRenameRegs
	c.nextIvAt = c.opts.IntervalLength
	if opts.Warmup == 0 {
		c.marked = true
	}
	c.total = opts.Warmup + opts.Window
	if opts.RecordIntervals {
		// Pre-size the recording from the known interval count so the
		// steady-state loop never grows it (+1 for the possible final
		// partial boundary overshoot).
		c.intervals = make([]stats.Interval, 0, opts.Window/c.opts.IntervalLength+1)
	}
}

// StepIntervals advances the simulation until at least n more control
// intervals have been emitted or the run completes; n <= 0 drains it.
// (A single front-end cycle can retire past two interval boundaries
// when the interval is shorter than the retire width, so a step may
// occasionally overshoot by one.) It returns true while the run can
// still advance. The fidelity tier is chosen once per call: the exact
// loop, or the sampled loop above it (stepSampled).
func (c *Core) StepIntervals(n int) bool {
	target := -1
	if n > 0 {
		target = c.emitted + n
	}
	if c.opts.SampleEvery > 1 {
		c.stepSampled(target)
	} else {
		c.stepExact(target)
	}
	if c.retired >= c.total {
		c.halted = true
	}
	return !c.halted
}

// advancing reports whether a step toward target (emitted intervals; <0:
// no target) should continue.
func (c *Core) advancing(target int) bool {
	return !c.halted && c.retired < c.total && (target < 0 || c.emitted < target)
}

// stepExact is the exact loop: every clock edge until target, consumed
// one at a time or in idle stretches.
func (c *Core) stepExact(target int) {
	for c.advancing(target) {
		if h, ok := c.idleStretch(); ok {
			c.stepIdle(h)
			continue
		}
		c.stepEdge()
	}
}

// stepEdge consumes the earliest pending clock edge: the domain's
// regulator steps, its frequency integral accrues, and its tick runs.
func (c *Core) stepEdge() {
	d, t := c.sched.Advance()
	c.now = t
	dt := t - c.last[d]
	if dt < 0 {
		dt = 0
	}
	f := c.regs[d].Step(dt)
	if f != c.curFreq[d] {
		// Reprogramming the PLL (and refreshing the edge cache) is
		// only needed when the regulator actually moved; a settled
		// regulator returns the frequency the clock already runs at.
		c.curFreq[d] = f
		c.sched.SetFrequencyMHz(d, f)
		c.wake.Periods[d] = c.clks[d].PeriodPS()
		c.wakeScans()
	}
	c.freqIntegral[d] += f * dt
	c.last[d] = t

	switch d {
	case clock.FrontEnd:
		c.feTick(t)
	case clock.Integer:
		c.intTick(t)
	case clock.FloatingPoint:
		c.fpTick(t)
	case clock.LoadStore:
		c.lsTick(t)
	}
	c.settle(t)
}

// idleStretch reports whether the next pending edge opens an idle
// stretch, and returns the stretch's horizon H. Every domain is quiet
// before H (H is the least quiet-until bound), so every edge before H
// only does its domain's idle-cycle accounting. A domain whose regulator
// still has to move (slewing, or not yet programmed into its clock) caps
// H at its pending edge, because that edge changes a period — a
// readiness input — and so must run through stepEdge. No stretch opens
// while an interval boundary is due: that is front-end work. H never
// passes the no-retirement watchdog's deadline, so a machine that can no
// longer make progress still stops there, edge by edge, instead of
// stretching forever.
func (c *Core) idleStretch() (float64, bool) {
	h := c.lastRetire + stallPS
	for _, q := range c.quiet {
		if q < h {
			h = q
		}
	}
	if h <= c.now || c.retired >= c.nextIvAt {
		return h, false
	}
	for d, r := range c.regs {
		if r.Transitioning() || r.CurrentMHz() != c.curFreq[d] {
			if e := c.clks[d].NextEdge(); e < h {
				h = e
			}
		}
	}
	_, t := c.sched.Peek()
	return h, t < h
}

// stepIdle consumes every pending edge before the horizon h (see
// idleStretch), domain by domain. Each edge does exactly what stepEdge
// would do for it: the same jitter draw, a settled regulator's unchanged
// frequency into the frequency integral, and the domain's idle-cycle
// accounting. This is exact because everything an idle edge touches is
// local to its domain — its clock, jitter source, accumulators and meter
// entries — so only the interleaving across domains changes, and every
// domain's own edges keep their order.
func (c *Core) stepIdle(h float64) {
	last := math.Inf(-1)
	for d := clock.Domain(0); d < clock.NumControllable; d++ {
		t, ok := c.sched.AdvanceBefore(d, h)
		if !ok {
			continue
		}
		f, v := c.curFreq[d], c.regs[d].Voltage()
		cam, occ := power.Component(0), 0
		switch d {
		case clock.Integer:
			cam, occ = power.IntCAM, c.iiq.Len()
		case clock.FloatingPoint:
			cam, occ = power.FPCAM, c.fiq.Len()
		case clock.LoadStore:
			cam, occ = power.LSQCAM, c.lsq.Len()
		}
		for ; ok; t, ok = c.sched.AdvanceBefore(d, h) {
			dt := t - c.last[d]
			if dt < 0 {
				dt = 0
			}
			c.freqIntegral[d] += f * dt
			c.last[d] = t
			if d == clock.FrontEnd {
				c.meter.ClockTick(d, v, false)
				continue
			}
			c.chargeOccupancy(d, cam, v, occ)
			c.meter.ClockTick(d, v, occ > 0)
		}
		if c.last[d] > last {
			last = c.last[d]
		}
	}
	c.now = last
	c.settle(last)
}

// stallPS is the no-retirement watchdog's limit: 0.5 ms of simulated
// time without a retirement means the model deadlocked.
const stallPS = 5e8

// settle runs the end-of-edge checks: the no-retirement watchdog and
// workload exhaustion.
func (c *Core) settle(t float64) {
	if t-c.lastRetire > stallPS && c.retired > 0 {
		c.stalled(t)
	}
	if c.genDone && c.rob.Len() == 0 {
		c.halted = true // workload shorter than the window
	}
}

// stalled reports a deadlocked model.
func (c *Core) stalled(t float64) {
	panic(fmt.Sprintf("pipeline: no retirement for 0.5 ms at t=%.0f ps (retired %d/%d, rob=%d iiq=%d fiq=%d lsq=%d)",
		t, c.retired, c.total, c.rob.Len(), c.iiq.Len(), c.fiq.Len(), c.lsq.Len()))
}

// Halt stops the run at the current loop boundary: subsequent
// StepIntervals calls advance nothing and Finish reports the
// measurements accumulated so far — the early-termination hook behind
// sim.Session.StopWhen. Safe to call from an OnInterval observer (the
// in-flight cycle completes first).
func (c *Core) Halt() { c.halted = true }

// Retired reports the total instructions retired so far, warmup included
// — the simulated-work denominator behind the harness's throughput
// accounting.
func (c *Core) Retired() uint64 { return c.retired }

// Progress reports the measured aggregates accumulated so far; all but
// the regulator targets are zero until warmup completes.
func (c *Core) Progress() stats.Progress {
	p := stats.Progress{Done: c.halted}
	for d := 0; d < clock.NumControllable; d++ {
		p.FreqMHz[d] = c.regs[d].TargetMHz()
	}
	if !c.marked {
		return p
	}
	p.Intervals = c.ivIndex
	p.Instructions = c.retired
	if p.Instructions > c.opts.Warmup {
		p.Instructions -= c.opts.Warmup
	}
	p.TimePS = c.now - c.markTime
	for d := clock.Domain(0); d < clock.NumDomains; d++ {
		p.EnergyPJ += c.meter.DomainPJ(d) - c.markEnergy[d]
	}
	return p
}

// Finish assembles the measurements accumulated so far into a Result.
// After a full drain it is the Result Run returns; after Halt (or
// mid-stepping) it is a well-formed partial Result covering the
// measured region up to the current time.
func (c *Core) Finish() stats.Result {
	measured := c.retired
	if measured > c.opts.Warmup {
		measured -= c.opts.Warmup
	}
	span := c.now - c.markTime
	res := stats.Result{
		Benchmark:    c.gen.Name(),
		Config:       c.opts.ConfigName,
		Instructions: measured,
		TimePS:       span,
		Intervals:    c.intervals,
	}
	for d := clock.Domain(0); d < clock.NumDomains; d++ {
		res.DomainEnergyPJ[d] = c.meter.DomainPJ(d) - c.markEnergy[d]
		res.EnergyPJ += res.DomainEnergyPJ[d]
	}
	for d := 0; d < clock.NumControllable; d++ {
		if span > 0 {
			res.AvgFreqMHz[d] = c.freqIntegral[d] / span
		}
		res.Transitions += c.regs[d].Transitions()
	}
	res.BranchAccuracy = c.pred.Stats().Accuracy()
	res.L1DMissRate = c.hier.L1D.Stats().MissRate()
	res.L2MissRate = c.hier.L2C.Stats().MissRate()
	// Zero unless sampled: no other run writes the sampler.
	res.DetailedIntervals = c.detailedIv
	res.SampledIntervals = c.sampledIv
	res.CPIErr95 = c.errCPI.rel95()
	res.EPIErr95 = c.errEPI.rel95()
	return res
}

func (c *Core) peek() (*workload.Instr, bool) {
	if !c.havePend && !c.genDone {
		if c.gen.Next(&c.pending) {
			c.havePend = true
		} else {
			c.genDone = true
		}
	}
	if c.havePend {
		return &c.pending, true
	}
	return nil, false
}

// xvisible returns the earliest time a datum completed at done in domain
// from can be used by domain to. Within a domain (and in the fully
// synchronous configuration) the completion time itself is the bypass
// point. Across domains, the wakeup broadcast is launched one producer
// cycle before the result registers (standard speculative wakeup, which
// lets dependents issue back to back), and the Sjogren–Myers arbitration
// requires the destination edge to trail that launch by the
// synchronization window. Penalties therefore arise from window
// violations (clock jitter) and from inter-domain rate differences — the
// two sources the paper's clocking model describes. The issue-queue CAM
// scans evaluate the same rule through queue.Wakeup, whose Periods
// table this reads.
func (c *Core) xvisible(done float64, from, to clock.Domain) float64 {
	if c.cfg.SingleClock || from == to {
		// Completion times are computed as issue edge + latency×period,
		// so they carry the issuing edge's jitter while the consuming
		// edge carries its own; a half-cycle guard keeps the edge-count
		// semantics (back-to-back issue at the L-th following edge)
		// independent of jitter.
		return done - 0.5*c.wake.Periods[from]
	}
	return done - c.wake.Periods[from] + c.cfg.SyncWindowPS
}

func (c *Core) complete(seq uint64, at float64) {
	c.ring.Complete(seq, at)
	c.rob.Complete(seq, at)
	c.wakeScans()
}

// wakeScans records that a readiness input changed: every issue
// structure scans again on its next edge.
func (c *Core) wakeScans() {
	for d := range c.quiet {
		c.quiet[d] = math.Inf(-1)
	}
}

func src(seq uint64, dist uint32) int64 {
	if dist == 0 {
		return queue.None
	}
	return int64(seq - uint64(dist))
}

// ---------------------------------------------------------------- front end

func (c *Core) feTick(t float64) {
	v := c.regs[clock.FrontEnd].Voltage()
	if t < c.quiet[clock.FrontEnd] {
		c.meter.ClockTick(clock.FrontEnd, v, false)
		return
	}
	active := false
	emitted := c.emitted

	// Retire in order, up to RetireWidth, as results become visible to the
	// front end (the ROB lives there).
	for n := 0; n < c.cfg.RetireWidth; n++ {
		h := c.rob.Head()
		if h == nil {
			break
		}
		if t < c.xvisible(h.DoneAt, clock.Domain(h.Domain), clock.FrontEnd) {
			break
		}
		if h.Class.Memory() {
			c.lsq.Retire(h.Seq)
			c.quiet[clock.LoadStore] = math.Inf(-1)
		}
		if writesInt(h.Class) {
			c.intRegsFree++
		} else if writesFP(h.Class) {
			c.fpRegsFree++
		}
		c.meter.Access(power.ROB, v, 1)
		c.rob.Pop()
		c.retired++
		c.lastRetire = t
		active = true
		if !c.marked && c.retired >= c.opts.Warmup {
			c.mark(t)
		}
	}
	for c.retired >= c.nextIvAt {
		c.emitDetailed(t)
	}

	// Resolve an outstanding mispredicted branch: fetch resumes a fixed
	// penalty after the resolution becomes visible in the front end.
	resolved := c.branchSeq >= 0 && t >= c.branchResume()
	if resolved {
		c.branchSeq = -1
	}

	blk, stall := c.fetchBlock, c.fetchStall
	if c.branchSeq < 0 && t >= c.fetchStall {
		c.fetch(t, v, &active)
	}

	c.meter.ClockTick(clock.FrontEnd, v, active)
	if !active && !resolved && c.emitted == emitted && c.fetchBlock == blk && c.fetchStall == stall {
		c.quiet[clock.FrontEnd] = c.feQuietUntil(t)
	}
}

// branchResume returns the time fetch resumes after the outstanding
// mispredicted branch: +Inf while the branch is in flight.
func (c *Core) branchResume() float64 {
	done, dom := c.ring.Lookup(uint64(c.branchSeq))
	if math.IsInf(done, 1) {
		return done
	}
	return c.xvisible(done, clock.Domain(dom), clock.FrontEnd) +
		float64(c.cfg.MispredictPenalty)*c.wake.Periods[clock.FrontEnd]
}

// feQuietUntil returns the front end's quiet-until bound after a tick at
// t that changed nothing but its clock accounting: the earliest time the
// ROB head can retire (+Inf for an empty ROB or an in-flight head), or
// fetch can act — the mispredict's resume time, else the I-cache fill
// stall; a fetch that was attempted and consumed nothing is blocked
// structurally or by workload exhaustion, which only a readiness input
// (wakeScans) or the front end's own retirement can change. These are the
// operands feTick compares t against, so the bound is exact.
func (c *Core) feQuietUntil(t float64) float64 {
	q := math.Inf(1)
	if h := c.rob.Head(); h != nil {
		q = c.xvisible(h.DoneAt, clock.Domain(h.Domain), clock.FrontEnd)
	}
	fetchAt := math.Inf(1)
	if c.branchSeq >= 0 {
		fetchAt = c.branchResume()
	} else if t < c.fetchStall {
		fetchAt = c.fetchStall
	}
	if fetchAt < q {
		q = fetchAt
	}
	return q
}

func (c *Core) fetch(t float64, v float64, active *bool) {
	cfg := &c.cfg
	for n := 0; n < cfg.DecodeWidth; n++ {
		in, ok := c.peek()
		if !ok {
			return
		}
		// Structural resources must all be available before rename.
		if c.rob.Free() == 0 {
			return
		}
		switch {
		case in.Class.FP():
			if c.fiq.Free() == 0 {
				return
			}
		case in.Class.Memory():
			if c.lsq.Free() == 0 {
				return
			}
		default:
			if c.iiq.Free() == 0 {
				return
			}
		}
		if writesInt(in.Class) && c.intRegsFree == 0 {
			return
		}
		if writesFP(in.Class) && c.fpRegsFree == 0 {
			return
		}

		// Instruction cache: one access per fetch block. A miss stalls
		// fetch while the L2 (load/store domain) or memory services it.
		blk := in.PC>>6 + 1
		if blk != c.fetchBlock {
			c.fetchBlock = blk
			c.meter.Access(power.ICache, v, 1)
			lvl, l2 := c.hier.Inst(in.PC)
			if l2 {
				lsV := c.regs[clock.LoadStore].Voltage()
				c.meter.Access(power.L2Cache, lsV, 1)
			}
			if lvl != cache.L1 {
				lsPeriod := c.wake.Periods[clock.LoadStore]
				var cross float64
				if !cfg.SingleClock {
					cross = 2 * cfg.SyncWindowPS // request and fill crossings
				}
				stall := cross + float64(cfg.L2Lat)*lsPeriod
				if lvl == cache.Mem {
					stall += cfg.MemLatPS
				}
				c.fetchStall = t + stall
				return // instruction not consumed; retried after the fill
			}
		}

		c.havePend = false // consume
		*active = true
		seq := in.Seq
		dom := execDomain(in.Class)
		c.ring.Dispatch(seq, uint8(dom))
		c.wakeScans() // covers the queue push below too
		c.rob.Push(queue.ROBEntry{Seq: seq, DoneAt: math.Inf(1), Domain: uint8(dom), Class: in.Class})
		// A dispatched entry is consumable at the destination's next edge
		// (one-cycle dispatch-to-issue in the synchronous machine); across
		// clock domains the interface FIFO additionally imposes the
		// synchronization window on that edge.
		vis := t + 0.5*c.wake.Periods[clock.FrontEnd]
		if !c.cfg.SingleClock {
			vis = t + c.cfg.SyncWindowPS
		}
		s1, s2 := src(seq, in.Dep1), src(seq, in.Dep2)

		switch {
		case in.Class.Memory():
			c.lsq.Push(queue.LSQEntry{
				Seq: seq, IsStore: in.Class == workload.Store, Addr: in.Addr,
				Src1: s1, Src2: s2, VisibleAt: vis, DoneAt: math.Inf(1),
			})
		case in.Class.FP():
			c.fiq.Push(queue.Entry{Seq: seq, Class: in.Class, Src1: s1, Src2: s2, VisibleAt: vis})
		default:
			c.iiq.Push(queue.Entry{Seq: seq, Class: in.Class, Src1: s1, Src2: s2, VisibleAt: vis})
		}
		if writesInt(in.Class) {
			c.intRegsFree--
		} else if writesFP(in.Class) {
			c.fpRegsFree--
		}
		c.meter.Access(power.Rename, v, 1)
		c.meter.Access(power.ROB, v, 1)

		if in.Class == workload.Branch {
			c.meter.Access(power.BPred, v, 1)
			c.meter.Access(power.BTB, v, 1)
			correct := c.pred.Update(in.PC, in.Taken)
			btbHit := true
			if in.Taken {
				_, btbHit = c.pred.Target(in.PC)
				c.pred.SetTarget(in.PC, in.Target)
			}
			if !correct || !btbHit {
				// Mispredict: fetch stops until the branch resolves in
				// the integer domain plus the recovery penalty.
				c.branchSeq = int64(seq)
				return
			}
			if in.Taken {
				return // fetch discontinuity ends the fetch group
			}
		}
	}
}

// ------------------------------------------------------------- integer side

func (c *Core) intTick(t float64) {
	d := clock.Integer
	v := c.regs[d].Voltage()
	period := c.wake.Periods[d]
	occ := c.iiq.Len()
	c.chargeOccupancy(d, power.IntCAM, v, occ)
	if t < c.quiet[d] {
		c.meter.ClockTick(d, v, occ > 0)
		return
	}

	c.wake.SetTick(t, uint8(d))
	// One fused CAM walk selects both pipes (the class sets are
	// disjoint); the ALU selections are processed before the multiplier
	// ones, exactly as the two-pass formulation did. Completions stamped
	// here cannot flip a later readiness test in the same walk: a
	// latency of ≥1 producer cycle puts every bypass point after t.
	c.selBuf, c.selBuf2, c.quiet[d] = c.iiq.Select(
		c.cfg.IntALUs, intALUClasses, c.cfg.IntMuls, intMulClasses,
		&c.wake, c.selBuf[:0], c.selBuf2[:0])
	for i := range c.selBuf {
		e := &c.selBuf[i]
		c.complete(e.Seq, t+float64(c.cfg.IntALULat)*period)
		c.chargeIssue(power.IntIQ, power.IntRF, power.IntALU, v, e.Src1, e.Src2, e.Class != workload.Branch)
	}
	for i := range c.selBuf2 {
		e := &c.selBuf2[i]
		c.complete(e.Seq, t+float64(c.cfg.IntMulLat)*period)
		c.chargeIssue(power.IntIQ, power.IntRF, power.IntMul, v, e.Src1, e.Src2, true)
	}
	issued := len(c.selBuf) + len(c.selBuf2)

	c.meter.ClockTick(d, v, issued > 0 || occ > 0)
}

// chargeOccupancy accounts one edge of an exec domain's issue-structure
// occupancy: the interval occupancy sums and the per-entry CAM energy.
func (c *Core) chargeOccupancy(d clock.Domain, cam power.Component, v float64, occ int) {
	c.occupSum[d] += float64(occ)
	c.ivTicks[d]++
	c.meter.Access(cam, v, occ)
}

// chargeIssue accounts the energy of issuing one instruction: issue-queue
// access, register-file reads for present sources, the functional-unit
// operation, and the result write (when the instruction produces one).
func (c *Core) chargeIssue(iq, rf, fu power.Component, v float64, s1, s2 int64, writes bool) {
	c.meter.Access(iq, v, 1)
	reads := 0
	if s1 != queue.None {
		reads++
	}
	if s2 != queue.None {
		reads++
	}
	c.meter.Access(rf, v, reads)
	c.meter.Access(fu, v, 1)
	if writes {
		c.meter.Access(rf, v, 1)
	}
}

// ------------------------------------------------------- floating-point side

func (c *Core) fpTick(t float64) {
	d := clock.FloatingPoint
	v := c.regs[d].Voltage()
	period := c.wake.Periods[d]
	occ := c.fiq.Len()
	c.chargeOccupancy(d, power.FPCAM, v, occ)
	if t < c.quiet[d] {
		c.meter.ClockTick(d, v, occ > 0)
		return
	}

	c.wake.SetTick(t, uint8(d))
	// Fused two-pipe walk; see intTick for the ordering argument.
	c.selBuf, c.selBuf2, c.quiet[d] = c.fiq.Select(
		c.cfg.FPALUs, fpALUClasses, c.cfg.FPMuls, fpMulClasses,
		&c.wake, c.selBuf[:0], c.selBuf2[:0])
	for i := range c.selBuf {
		e := &c.selBuf[i]
		c.complete(e.Seq, t+float64(c.cfg.FPALULat)*period)
		c.chargeIssue(power.FPIQ, power.FPRF, power.FPALU, v, e.Src1, e.Src2, true)
	}
	for i := range c.selBuf2 {
		e := &c.selBuf2[i]
		lat := c.cfg.FPMulLat
		if e.Class == workload.FPDiv {
			lat = c.cfg.FPDivLat
		}
		c.complete(e.Seq, t+float64(lat)*period)
		c.chargeIssue(power.FPIQ, power.FPRF, power.FPMul, v, e.Src1, e.Src2, true)
	}
	issued := len(c.selBuf) + len(c.selBuf2)

	c.meter.ClockTick(d, v, issued > 0 || occ > 0)
}

// ----------------------------------------------------------- load/store side

func (c *Core) lsTick(t float64) {
	d := clock.LoadStore
	v := c.regs[d].Voltage()
	period := c.wake.Periods[d]
	occ := c.lsq.Len()
	c.chargeOccupancy(d, power.LSQCAM, v, occ)
	if t < c.quiet[d] {
		c.meter.ClockTick(d, v, occ > 0)
		return
	}

	c.wake.SetTick(t, uint8(d))
	// The walk selects first and the issues are stamped after it, in
	// program order; as in intTick, no completion stamped here could
	// have flipped a later readiness test in the walk (the shortest
	// latency is one cycle, past the half-cycle bypass point).
	c.lsBuf, c.quiet[d] = c.lsq.Select(c.cfg.MemPorts, &c.wake, c.lsBuf[:0])
	for i := range c.lsBuf {
		e := c.lsBuf[i].E
		if e.IsStore {
			// Address resolution; data is written at retirement, but
			// the access energy belongs to the store.
			e.DoneAt = t + period
			c.complete(e.Seq, e.DoneAt)
			_, l2 := c.hier.Data(e.Addr)
			c.meter.Access(power.LSQ, v, 1)
			c.meter.Access(power.DCache, v, 1)
			if l2 {
				c.meter.Access(power.L2Cache, v, 1)
			}
			continue
		}
		c.meter.Access(power.LSQ, v, 1)
		if c.lsBuf[i].Forward {
			e.DoneAt = t + period
			c.complete(e.Seq, e.DoneAt)
			continue
		}
		lvl, l2 := c.hier.Data(e.Addr)
		cycles := c.cfg.L1Lat
		var extra float64
		if lvl != cache.L1 {
			cycles += c.cfg.L2Lat
		}
		if lvl == cache.Mem {
			extra = c.cfg.MemLatPS
		}
		e.DoneAt = t + float64(cycles)*period + extra
		c.complete(e.Seq, e.DoneAt)
		c.meter.Access(power.DCache, v, 1)
		if l2 {
			c.meter.Access(power.L2Cache, v, 1)
		}
	}

	c.meter.ClockTick(d, v, len(c.lsBuf) > 0 || occ > 0)
}

// mark begins the measured region: energy, time, frequency integrals and
// interval accumulators all restart here, so warmup (cache/predictor
// training) does not contaminate the measurements.
func (c *Core) mark(t float64) {
	c.marked = true
	c.markTime = t
	for d := clock.Domain(0); d < clock.NumDomains; d++ {
		c.markEnergy[d] = c.meter.DomainPJ(d)
	}
	c.ivStart = t
	c.ivIndex = 0
	c.nextIvAt = c.retired + c.opts.IntervalLength
	for d := 0; d < clock.NumControllable; d++ {
		c.freqIntegral[d] = 0
		c.occupSum[d] = 0
		c.ivTicks[d] = 0
	}
	if c.opts.SampleEvery > 1 {
		c.anchorInterval()
	}
}

// ----------------------------------------------------------------- intervals

// emitDetailed closes the detailed interval ending at t: the controller
// sees the occupancy the interval's edges accumulated. At sampled
// fidelity the fast-forward model is seeded before the accumulators roll
// over, and the next skips are scheduled after.
func (c *Core) emitDetailed(t float64) {
	ivLen := c.opts.IntervalLength
	sampling := c.opts.SampleEvery > 1
	if sampling {
		c.noteDetailInterval(t, ivLen)
	}
	var iv IntervalView
	for d := 0; d < clock.NumControllable; d++ {
		iv.QueueUtil[d] = c.occupSum[d] / float64(ivLen)
		if c.ivTicks[d] > 0 {
			iv.QueueAvg[d] = c.occupSum[d] / c.ivTicks[d]
		}
		c.occupSum[d] = 0
		c.ivTicks[d] = 0
	}
	c.emit(iv, t, t-c.ivStart)
	if sampling {
		// Skipped intervals hold the last detailed interval's occupancy
		// view in front of the controller.
		c.detail.util = iv.QueueUtil
		c.detail.qavg = iv.QueueAvg
		c.scheduleSkips()
	}
}

// emit closes the control interval ending at t, detailed or estimated:
// the one place an interval is shown to the controller, recorded and
// streamed, and the interval counters roll over. The caller fills in the
// occupancy view (and Estimated); dt is the interval's duration, which a
// fast-forward passes as its own estimate because (now+dt)−now need not
// equal dt.
func (c *Core) emit(iv IntervalView, t, dt float64) {
	ivLen := c.opts.IntervalLength
	sampling := c.opts.SampleEvery > 1
	iv.Index = c.ivIndex
	iv.Instructions = ivLen
	iv.EndPS = t
	iv.Warmup = !c.marked
	for d := 0; d < clock.NumControllable; d++ {
		iv.FreqMHz[d] = c.regs[d].TargetMHz()
	}
	if dt > 0 {
		iv.IPC = float64(ivLen) / (dt / 1000)
	}
	// At exact fidelity on-line controllers adapt through warmup; at
	// sampled fidelity warmup is left uncontrolled so the warmed state is
	// controller-independent and checkpointed warmup reuse stays sound.
	if c.opts.Controller != nil && (c.marked || c.opts.SampleEvery == 0) {
		targets := c.opts.Controller.Observe(iv)
		for d := 0; d < clock.NumControllable; d++ {
			if targets[d] > 0 {
				c.regs[d].SetTargetMHz(targets[d])
			}
		}
		if sampling {
			c.noteTargets(targets)
			// A schedule step or end-stop probe during a skip counts as
			// activity too: the remaining skips of this stretch are
			// abandoned so the controller's response lands on measured data.
			if c.ctrlQuiet < ctrlQuietMin {
				c.skipPending = 0
			}
		}
	}
	var siv stats.Interval
	notify := c.marked && (c.opts.RecordIntervals || c.opts.OnInterval != nil)
	if notify {
		siv = stats.Interval{
			Index:        iv.Index,
			Instructions: iv.Instructions,
			EndPS:        iv.EndPS,
			QueueUtil:    iv.QueueUtil,
			QueueAvg:     iv.QueueAvg,
			FreqMHz:      iv.FreqMHz,
			IPC:          iv.IPC,
			Estimated:    iv.Estimated,
		}
		if c.opts.RecordIntervals {
			c.intervals = append(c.intervals, siv)
		}
	}
	c.ivStart = t
	c.ivIndex++
	c.emitted++
	c.nextIvAt += ivLen
	if sampling {
		c.anchorInterval()
	}
	// The observer runs after the counters roll over, so a Progress read
	// from inside it counts the interval it is being shown.
	if notify && c.opts.OnInterval != nil {
		c.opts.OnInterval(siv)
	}
}
