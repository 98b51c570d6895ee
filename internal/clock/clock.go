// Package clock models the per-domain clocking substrate of a Multiple
// Clock Domain (MCD) processor: independent domain clocks with normally
// distributed jitter, randomized initial phases, cycle-by-cycle edge
// tracking, and the Sjogren–Myers synchronization-window test used to
// decide whether a signal produced in one domain can be latched at a given
// edge of another domain.
//
// All times are in picoseconds; all frequencies in MHz. A 1.0 GHz clock
// therefore has a nominal period of 1000 ps.
package clock

import (
	"math"

	"mcd/internal/xrand"
)

// Domain identifies one of the independently clocked processor regions
// described in the paper (Figure 1). Memory is clocked independently but is
// not controllable; it always runs at the maximum frequency.
type Domain uint8

// The four controllable domains, plus the external memory domain.
const (
	FrontEnd Domain = iota
	Integer
	FloatingPoint
	LoadStore
	Memory

	// NumControllable is the number of domains whose frequency and
	// voltage may be adjusted (all but Memory).
	NumControllable = 4
	// NumDomains includes the external memory domain.
	NumDomains = 5
)

var domainNames = [NumDomains]string{"frontend", "integer", "fp", "loadstore", "memory"}

func (d Domain) String() string {
	if int(d) < len(domainNames) {
		return domainNames[d]
	}
	return "unknown"
}

// Controllable reports whether the domain's frequency/voltage may be
// adjusted by a controller.
func (d Domain) Controllable() bool { return d < NumControllable }

// PeriodPS converts a frequency in MHz to a period in picoseconds.
func PeriodPS(freqMHz float64) float64 { return 1e6 / freqMHz }

// FreqMHz converts a period in picoseconds to a frequency in MHz.
func FreqMHz(periodPS float64) float64 { return 1e6 / periodPS }

// Clock is one domain clock. It tracks the ideal (jitter-free) time of its
// next edge; each pending edge is displaced by a fresh jitter sample drawn
// from a normal distribution with mean zero, exactly as in the paper's
// clocking model (Section 4). Jitter is per-edge displacement from the PLL
// grid, not a cumulative random walk: the relationship between two domain
// clocks of equal frequency stays bounded, and synchronization penalties
// arise from window violations and inter-domain rate differences, as the
// paper describes.
type Clock struct {
	periodPS float64
	basePS   float64 // ideal time of the pending edge
	jitPS    float64 // jitter displacement of the pending edge
	lastPS   float64
	sigmaPS  float64
	rng      *xrand.Counting
	cycles   uint64
}

// New returns a clock running at freqMHz whose first edge occurs at
// startPS. Jitter is disabled when sigmaPS is zero or rng is nil.
func New(freqMHz, sigmaPS, startPS float64, rng *xrand.Counting) *Clock {
	c := &Clock{}
	c.Reset(freqMHz, sigmaPS, startPS, rng)
	return c
}

// Reset reinitializes the clock in place, exactly as New would construct
// it (the first jitter sample is drawn here, in constructor order), so a
// reused pipeline core is indistinguishable from a fresh one.
func (c *Clock) Reset(freqMHz, sigmaPS, startPS float64, rng *xrand.Counting) {
	*c = Clock{
		periodPS: PeriodPS(freqMHz),
		basePS:   startPS,
		lastPS:   math.Inf(-1),
		sigmaPS:  sigmaPS,
		rng:      rng,
	}
	c.jitPS = c.sampleJitter()
}

func (c *Clock) sampleJitter() float64 {
	if c.rng == nil || c.sigmaPS == 0 {
		return 0
	}
	return c.rng.NormFloat64() * c.sigmaPS
}

// NextEdge returns the time of the next (not yet consumed) clock edge.
func (c *Clock) NextEdge() float64 {
	e := c.basePS + c.jitPS
	// Jitter must never reorder edges; with sigma = 110 ps and periods
	// >= 1000 ps a violation is a multi-sigma event, but guard anyway.
	if e <= c.lastPS {
		e = c.lastPS + c.periodPS*0.25
	}
	return e
}

// Advance consumes the pending edge and schedules the following one. It
// returns the time of the consumed edge.
func (c *Clock) Advance() float64 {
	edge := c.NextEdge()
	c.advanceFrom(edge)
	return edge
}

// advanceFrom consumes the pending edge, whose time the caller already
// computed via NextEdge (the scheduler caches it), and schedules the
// following one.
func (c *Clock) advanceFrom(edge float64) {
	c.lastPS = edge
	c.basePS += c.periodPS
	c.jitPS = c.sampleJitter()
	c.cycles++
}

// SetFrequencyMHz changes the clock frequency. The change takes effect for
// the next scheduled period (the already-scheduled pending edge is kept),
// which models a PLL whose output period updates continuously while the
// domain executes through the change.
func (c *Clock) SetFrequencyMHz(f float64) { c.periodPS = PeriodPS(f) }

// FrequencyMHz returns the current clock frequency.
func (c *Clock) FrequencyMHz() float64 { return FreqMHz(c.periodPS) }

// PeriodPS returns the current nominal period in picoseconds.
func (c *Clock) PeriodPS() float64 { return c.periodPS }

// Cycles returns the number of edges consumed so far.
func (c *Clock) Cycles() uint64 { return c.cycles }

// State is a snapshot of a clock's mutable fields — everything except
// the jitter sigma and rng, which are fixed at Reset. The rng belongs to
// the owner, which saves its stream position itself (the pipeline core
// copies each jitter source's xrand.State into its warm snapshot).
type State struct {
	PeriodPS float64
	BasePS   float64
	JitPS    float64
	LastPS   float64
	Cycles   uint64
}

// State captures the clock's mutable fields for a snapshot.
func (c *Clock) State() State {
	return State{PeriodPS: c.periodPS, BasePS: c.basePS, JitPS: c.jitPS, LastPS: c.lastPS, Cycles: c.cycles}
}

// SetState restores a snapshot taken with State. The caller must Refresh
// any scheduler caching this clock's pending edge.
func (c *Clock) SetState(s State) {
	c.periodPS = s.PeriodPS
	c.basePS = s.BasePS
	c.jitPS = s.JitPS
	c.lastPS = s.LastPS
	c.cycles = s.Cycles
}

// FastForwardTo advances the ideal edge grid past time t by whole
// periods without consuming edges one by one: the pending jitter sample
// is kept (no rng draws, so the jitter stream stays deterministic) and
// the skipped periods are credited to the cycle counter. Used by the
// sampled fidelity tier to jump over fast-forwarded control intervals.
// The caller must Refresh any scheduler caching this clock's edges.
func (c *Clock) FastForwardTo(t float64) {
	if c.basePS >= t {
		return
	}
	n := math.Ceil((t - c.basePS) / c.periodPS)
	c.basePS += n * c.periodPS
	c.cycles += uint64(n)
}

// Visible implements the Sjogren–Myers arbitration test: a signal produced
// in a source domain at time producedPS can be latched at a destination
// edge at time edgePS only if the edges are at least windowPS apart.
// Destination edges inside the window must wait for the following edge.
func Visible(producedPS, edgePS, windowPS float64) bool {
	return edgePS >= producedPS+windowPS
}

// Scheduler multiplexes the domain clocks, always surfacing the earliest
// pending edge. With a handful of clocks a linear scan beats a heap; the
// scan runs over a flat cache of each clock's pending-edge time, refreshed
// whenever a clock is advanced or retargeted, so the per-cycle hot path
// touches no clock state at all. Mutations must therefore go through the
// scheduler (Advance, SetFrequencyMHz) — or call Refresh after mutating a
// clock directly.
type Scheduler struct {
	clocks []*Clock
	next   []float64 // cached NextEdge of each clock
}

// NewScheduler builds a scheduler over per-domain clocks indexed by Domain.
// All entries must be non-nil. The external memory domain needs no clock
// here; its fixed latency is modeled directly by the pipeline.
func NewScheduler(clocks []*Clock) *Scheduler {
	if len(clocks) == 0 {
		panic("clock: scheduler needs at least one clock")
	}
	s := &Scheduler{clocks: clocks, next: make([]float64, len(clocks))}
	s.Refresh()
	return s
}

// Refresh recomputes the cached pending-edge times from the clocks — for
// a reused scheduler whose clocks were Reset, or after direct clock
// mutation.
func (s *Scheduler) Refresh() {
	for d := range s.clocks {
		s.next[d] = s.clocks[d].NextEdge()
	}
}

// SetFrequencyMHz changes domain d's clock frequency (taking effect for
// the next scheduled period, like Clock.SetFrequencyMHz) and keeps the
// pending-edge cache coherent.
func (s *Scheduler) SetFrequencyMHz(d Domain, f float64) {
	s.clocks[d].SetFrequencyMHz(f)
	s.next[d] = s.clocks[d].NextEdge()
}

// Peek returns the domain whose next edge is earliest and that edge's time.
// Ties break toward the lowest-numbered domain, which gives the front end
// priority at aligned edges (e.g. in fully synchronous configurations).
func (s *Scheduler) Peek() (Domain, float64) {
	best := Domain(0)
	bestT := s.next[0]
	for d := 1; d < len(s.next); d++ {
		if t := s.next[d]; t < bestT {
			best, bestT = Domain(d), t
		}
	}
	return best, bestT
}

// Advance consumes the earliest pending edge and returns its domain and time.
func (s *Scheduler) Advance() (Domain, float64) {
	d, t := s.Peek()
	c := s.clocks[d]
	c.advanceFrom(t)
	s.next[d] = c.NextEdge()
	return d, t
}

// AdvanceBefore consumes domain d's pending edge if it falls before h and
// returns its time; otherwise it consumes nothing and reports false. It
// lets a caller walk one domain's edges up to a horizon while the
// pending-edge cache stays coherent.
func (s *Scheduler) AdvanceBefore(d Domain, h float64) (float64, bool) {
	t := s.next[d]
	if !(t < h) {
		return t, false
	}
	c := s.clocks[d]
	c.advanceFrom(t)
	s.next[d] = c.NextEdge()
	return t, true
}
