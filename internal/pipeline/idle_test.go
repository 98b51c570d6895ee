package pipeline

import (
	"fmt"
	"reflect"
	"testing"

	"mcd/internal/clock"
	"mcd/internal/power"
	"mcd/internal/workload"
)

// edgeState is everything an edge can touch that is cheap to compare
// after every step: time, clocks and jitter positions, the per-domain
// accumulators, the meter's accumulators (not its voltage memo, which
// caches a pure function), and the front end's progress.
type edgeState struct {
	now, lastRetire     float64
	retired             uint64
	emitted             int
	halted              bool
	clks                [clock.NumControllable]clock.State
	next                [clock.NumControllable]float64
	jcalls              [clock.NumControllable]uint64
	last, curFreq       [clock.NumControllable]float64
	periods             [clock.NumControllable]float64
	occupSum, ivTicks   [clock.NumControllable]float64
	freqIntegral        [clock.NumControllable]float64
	domainPJ            [clock.NumDomains]float64
	clockPJ             [clock.NumControllable]float64
	compPJ              [power.NumComponents]float64
	accesses            [power.NumComponents]uint64
	robLen, iiqLen      int
	fiqLen, lsqLen      int
	fetchStall          float64
	fetchBlock          uint64
	branchSeq           int64
	intRegs, fpRegs     int
	havePend, genDone   bool
	skipPending, ivIdx  int
	nextIvAt            uint64
	regMHz, regTarget   [clock.NumControllable]float64
	regVolt             [clock.NumControllable]float64
	regTransitions      [clock.NumControllable]uint64
	genCalls, genSeq    uint64
	ivStart, markTime   float64
	marked              bool
	ivStartE, ivStartCk [clock.NumControllable]float64
}

func captureEdgeState(c *Core) edgeState {
	s := edgeState{
		now: c.now, lastRetire: c.lastRetire, retired: c.retired, emitted: c.emitted, halted: c.halted,
		last: c.last, curFreq: c.curFreq, periods: c.wake.Periods,
		occupSum: c.occupSum, ivTicks: c.ivTicks, freqIntegral: c.freqIntegral,
		robLen: c.rob.Len(), iiqLen: c.iiq.Len(), fiqLen: c.fiq.Len(), lsqLen: c.lsq.Len(),
		fetchStall: c.fetchStall, fetchBlock: c.fetchBlock, branchSeq: c.branchSeq,
		intRegs: c.intRegsFree, fpRegs: c.fpRegsFree, havePend: c.havePend, genDone: c.genDone,
		skipPending: c.skipPending, ivIdx: c.ivIndex, nextIvAt: c.nextIvAt,
		ivStart: c.ivStart, markTime: c.markTime, marked: c.marked,
		ivStartE: c.ivStartEnergy, ivStartCk: c.ivStartClkPJ,
	}
	for d := clock.Domain(0); d < clock.NumControllable; d++ {
		s.clks[d] = c.clks[d].State()
		s.next[d] = c.clks[d].NextEdge()
		if c.jsrc[d] != nil {
			s.jcalls[d] = c.jsrc[d].Calls()
		}
		s.clockPJ[d] = c.meter.DomainClockPJ(d)
		r := c.regs[d]
		s.regMHz[d], s.regTarget[d], s.regVolt[d], s.regTransitions[d] = r.CurrentMHz(), r.TargetMHz(), r.Voltage(), r.Transitions()
	}
	for d := clock.Domain(0); d < clock.NumDomains; d++ {
		s.domainPJ[d] = c.meter.DomainPJ(d)
	}
	for k := power.Component(0); k < power.NumComponents; k++ {
		s.compPJ[k] = c.meter.ComponentPJ(k)
		s.accesses[k] = c.meter.Accesses(k)
	}
	g := c.gen.(workload.Checkpointer).Checkpoint()
	s.genCalls, s.genSeq = g.Rng.Calls(), g.Seq
	return s
}

// fullState is the complete comparable state: the warm snapshot (every
// structure, deep) with the meter replaced by its accumulators, plus the
// cheap edge state.
func fullState(c *Core) (*WarmState, edgeState) {
	w := c.CaptureWarm()
	if w != nil {
		w.meter = power.Meter{}
	}
	return w, captureEdgeState(c)
}

// TestIdleStretchMatchesPerEdge is the idle-stretch differential test.
// Warm snapshots taken throughout runs of every runCases scenario are
// restored into two cores. The core under test runs the production
// step: an idle stretch whenever one opens, otherwise one edge with the
// quiet-until skips. The reference core consumes the same edges one at
// a time with every quiet bound reset before each edge, so every tick
// does its full work. After every step the two must agree bit for bit
// on everything except the bounds themselves; at the end of each
// segment the full warm state is compared too. Each scenario runs at
// the default slew, where flipController keeps three regulators slewing
// (so the slewing cap bounds every stretch), and at a 1000× faster slew,
// where regulators settle within an interval and long stretches open.
func TestIdleStretchMatchesPerEdge(t *testing.T) {
	const (
		window   = 40_000
		warmup   = 2_000
		interval = 250
		every    = 12 // intervals between snapshots
		segment  = 3  // intervals each restored pair runs
	)
	for _, tc := range runCases() {
		t.Run(tc.name, func(t *testing.T) {
			stretches, edges := 0, 0
			for _, slew := range []float64{DefaultConfig().SlewNsPerMHz, DefaultConfig().SlewNsPerMHz / 1000} {
				cfg := DefaultConfig()
				cfg.SingleClock = tc.single
				cfg.SlewNsPerMHz = slew
				opts := func() RunOptions {
					return RunOptions{
						Window: window, Warmup: warmup, IntervalLength: interval,
						SampleEvery: tc.sample, Controller: flipController(),
					}
				}
				src := New(cfg, tc.prof.NewGenerator(warmup+window))
				src.Start(opts())
				var snaps []*WarmState
				for src.StepIntervals(every) {
					if w := src.CaptureWarm(); w != nil {
						snaps = append(snaps, w)
					}
				}
				if len(snaps) < 8 {
					t.Fatalf("slew %v: only %d snapshots", slew, len(snaps))
				}

				a := New(cfg, tc.prof.NewGenerator(warmup+window))
				b := New(cfg, tc.prof.NewGenerator(warmup+window))
				for i, w := range snaps {
					for _, c := range []*Core{a, b} {
						c.gen.Reset()
						c.Reset(cfg, c.gen)
						c.Start(opts())
						c.RestoreWarm(w)
					}
					n, e, err := runLockstep(a, b, a.emitted+segment)
					if err != nil {
						t.Fatalf("slew %v, snapshot %d: %v", slew, i, err)
					}
					stretches += n
					edges += e
					wa, ea := fullState(a)
					wb, eb := fullState(b)
					if ea != eb || !reflect.DeepEqual(wa, wb) {
						t.Fatalf("slew %v, snapshot %d: full state differs after the segment", slew, i)
					}
				}
			}
			if stretches < 100 || edges < 10*stretches {
				t.Fatalf("only %d idle stretches covering %d edges compared", stretches, edges)
			}
			t.Logf("%d idle stretches covering %d edges", stretches, edges)
		})
	}
}

// runLockstep advances a by the production step and b by full-work
// single edges until a has emitted target intervals or halts, comparing
// after every step. It returns the idle stretches a took and the edges
// they covered.
func runLockstep(a, b *Core, target int) (stretches, edges int, err error) {
	for !a.halted && a.retired < a.total && a.emitted < target {
		before := a.edgeCount()
		switch h, ok := a.idleStretch(); {
		case a.skipPending > 0:
			a.fastForwardInterval()
			b.fastForwardInterval()
		case ok:
			a.stepIdle(h)
			for {
				b.wakeScans()
				if _, t := b.sched.Peek(); !(t < h) {
					break
				}
				b.stepEdge()
			}
			stretches++
			edges += int(a.edgeCount() - before)
		default:
			a.stepEdge()
			b.wakeScans()
			b.stepEdge()
		}
		if sa, sb := captureEdgeState(a), captureEdgeState(b); sa != sb {
			return stretches, edges, fmt.Errorf("state differs at t=%v after %d stretches:\n got  %+v\n want %+v", a.now, stretches, sa, sb)
		}
	}
	return stretches, edges, nil
}

// edgeCount is the number of clock edges the core has consumed.
func (c *Core) edgeCount() uint64 {
	var n uint64
	for _, k := range c.clks {
		n += k.Cycles()
	}
	return n
}
