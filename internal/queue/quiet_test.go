package queue

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mcd/internal/workload"
)

// The quiet-until bound lets the pipeline skip a domain's scan while
// t < bound. That is exact only if (a) no scan at any now' < bound
// selects anything, and (b) the bound is tight: at now' = bound some
// entry passes. These tests check both against a naive reference of the
// readiness rule — the per-domain visibility expression written out from
// the periods table, without the folded operands the scans use — over
// hand-built cases taken from queue_test.go and randomized queues, ring
// states and period tables.

// scanCase is one issue structure in one ring/period state, seen from
// consuming domain Dom.
type scanCase struct {
	name  string
	ring  *CompletionRing
	w     Wakeup // periods, window, single-clock flag, ring
	dom   uint8
	iq    []Entry
	max1  int
	max2  int
	lsq   []LSQEntry
	ports int
}

var (
	aluPipe = MaskOf(workload.IntALU, workload.Branch)
	mulPipe = MaskOf(workload.IntMul)
)

// refVisible is the cross-domain visibility rule written out directly.
func refVisible(c *scanCase, src int64, now float64) bool {
	if src < 0 {
		return true
	}
	done, p := c.ring.Lookup(uint64(src)) // -Inf when overwritten or never seen
	var at float64
	if c.w.SingleClock || p == c.dom {
		at = done - 0.5*c.w.Periods[p]
	} else {
		at = done - c.w.Periods[p] + c.w.SyncWindowPS
	}
	return now >= at
}

func refReady(c *scanCase, vis float64, s1, s2 int64, now float64) bool {
	return vis <= now && refVisible(c, s1, now) && refVisible(c, s2, now)
}

// Selections are compared as seqs tagged with how they issued: the
// multiplier pipe, or a forwarded load.
const tagged = 1 << 32

// refIQSelect is the two-pipe selection as two independent passes.
func refIQSelect(c *scanCase, now float64) []uint64 {
	var alu, mul []uint64
	for _, e := range c.iq {
		if !refReady(c, e.VisibleAt, e.Src1, e.Src2, now) {
			continue
		}
		if aluPipe.Has(e.Class) && len(alu) < c.max1 {
			alu = append(alu, e.Seq)
		} else if mulPipe.Has(e.Class) && len(mul) < c.max2 {
			mul = append(mul, e.Seq|tagged)
		}
	}
	return append(alu, mul...)
}

// refLSQSelect is the load/store issue walk with the older-store check
// done by rescanning the queue prefix for every load.
func refLSQSelect(c *scanCase, now float64) []uint64 {
	var out []uint64
	es := append([]LSQEntry(nil), c.lsq...)
	ports := c.ports
	for i := range es {
		e := &es[i]
		if ports == 0 || e.Issued || !refReady(c, e.VisibleAt, e.Src1, e.Src2, now) {
			continue
		}
		blocked, forward := false, false
		if !e.IsStore {
			for j := 0; j < i; j++ {
				if es[j].IsStore {
					blocked = blocked || !es[j].Issued
					forward = forward || es[j].Block == e.Block
				}
			}
		}
		if blocked {
			continue
		}
		e.Issued = true
		ports--
		if forward {
			out = append(out, e.Seq|tagged)
		} else {
			out = append(out, e.Seq)
		}
	}
	return out
}

func (c *scanCase) refAt(now float64) []uint64 {
	if c.iq != nil {
		return refIQSelect(c, now)
	}
	return refLSQSelect(c, now)
}

// scanAt runs the case's Select at now on a fresh copy of its queue.
func (c *scanCase) scanAt(now float64) ([]uint64, float64) {
	w := c.w
	w.Ring = c.ring
	w.SetTick(now, c.dom)
	var got []uint64
	if c.iq != nil {
		q := NewIssueQueue(len(c.iq) + 1)
		for _, e := range c.iq {
			q.Push(e)
		}
		alu, mul, quiet := q.Select(c.max1, aluPipe, c.max2, mulPipe, &w, nil, nil)
		for _, e := range alu {
			got = append(got, e.Seq)
		}
		for _, e := range mul {
			got = append(got, e.Seq|tagged)
		}
		return got, quiet
	}
	l := NewLSQ(len(c.lsq)+1, 64)
	for _, e := range c.lsq {
		blk := e.Block
		l.Push(e)
		l.entries[len(l.entries)-1].Block = blk // cases set blocks directly
	}
	out, quiet := l.Select(c.ports, &w, nil)
	for _, s := range out {
		if s.Forward {
			got = append(got, s.E.Seq|tagged)
		} else {
			got = append(got, s.E.Seq)
		}
	}
	return got, quiet
}

// probes returns times strictly below bound: the largest float below it,
// a few random ones, and from.
func probes(rng *rand.Rand, bound, from float64) []float64 {
	ts := []float64{from}
	switch {
	case math.IsInf(bound, 1):
		ts = append(ts, 1e18, math.MaxFloat64)
	case !math.IsInf(bound, -1):
		ts = append(ts, math.Nextafter(bound, math.Inf(-1)), bound-1, bound-rng.Float64()*1000)
	}
	return ts
}

// checkQuiet checks one case at now0 and returns the scan's bound: the
// scan agrees with the reference, and when it selects nothing its bound
// is sound (nothing selects at any probe below it) and tight (something
// selects at it).
func checkQuiet(t *testing.T, c *scanCase, now0 float64, rng *rand.Rand) float64 {
	t.Helper()
	got, quiet := c.scanAt(now0)
	if want := c.refAt(now0); !slices.Equal(got, want) {
		t.Fatalf("%s: at %v selected %x, reference %x", c.name, now0, got, want)
	}
	if len(got) > 0 {
		if !math.IsInf(quiet, -1) {
			t.Fatalf("%s: selected at %v but quiet = %v, want -Inf", c.name, now0, quiet)
		}
		return quiet
	}
	for _, now := range probes(rng, quiet, now0) {
		s, q := c.scanAt(now)
		if r := c.refAt(now); len(s)+len(r) != 0 || q != quiet {
			t.Fatalf("%s: at %v < quiet %v selected %x (reference %x), quiet %v", c.name, now, quiet, s, r, q)
		}
	}
	if !math.IsInf(quiet, 1) {
		if s, _ := c.scanAt(quiet); len(s) == 0 || len(c.refAt(quiet)) == 0 {
			t.Fatalf("%s: bound %v not tight: nothing selected there", c.name, quiet)
		}
	}
	return quiet
}

// seedCases rebuilds the hand-written queue_test.go scenarios.
func seedCases() []*scanCase {
	none := func(seq uint64, cls workload.Class, vis float64, s1 int64) Entry {
		return Entry{Seq: seq, Class: cls, Src1: s1, Src2: None, VisibleAt: vis}
	}
	vis := NewCompletionRing(64) // TestWakeupSrcReadyMatchesVisibilityRule's ring
	vis.Dispatch(7, 2)
	vis.Complete(7, 10_000)
	vis.Dispatch(8, 1)
	rule := Wakeup{SyncWindowPS: 300, Periods: [4]float64{1000, 800, 1250, 900}}
	single := rule
	single.SingleClock = true

	dis := NewCompletionRing(64) // TestLSQDisambiguation's ring
	dis.Dispatch(9, 1)
	dis.Complete(9, 800)
	disInflight := NewCompletionRing(64)
	disInflight.Dispatch(9, 1)
	disLSQ := []LSQEntry{
		{Seq: 10, IsStore: true, Block: 4, Src1: 9, Src2: None},
		{Seq: 11, Block: 4, Src1: None, Src2: None},
		{Seq: 12, Block: 16, Src1: None, Src2: None},
	}
	flat := Wakeup{SyncWindowPS: 300, Periods: [4]float64{1000, 1000, 1000, 1000}}

	var oldest []Entry // TestIssueQueueSelectOldestFirst: odd seqs never visible
	for i := uint64(0); i < 6; i++ {
		v := 0.0
		if i%2 == 1 {
			v = math.Inf(1)
		}
		oldest = append(oldest, none(i, workload.IntALU, v, None))
	}
	return []*scanCase{
		{name: "cross-domain", ring: vis, w: rule, dom: 1, max1: 1,
			iq: []Entry{none(60, workload.IntALU, 0, 7)}},
		{name: "same-domain", ring: vis, w: rule, dom: 2, max1: 1,
			iq: []Entry{none(60, workload.IntALU, 0, 7)}},
		{name: "single-clock", ring: vis, w: single, dom: 1, max1: 1,
			iq: []Entry{none(60, workload.IntALU, 0, 7)}},
		{name: "in-flight", ring: vis, w: rule, dom: 1, max1: 1, max2: 1,
			iq: []Entry{none(60, workload.IntMul, 0, 8), none(61, workload.IntALU, 9500, 7)}},
		{name: "oldest-first", ring: vis, w: flat, dom: 1, max1: 2, iq: oldest},
		{name: "class-mask", ring: vis, w: flat, dom: 1, max1: 8, iq: []Entry{
			none(0, workload.IntALU, 5, None), none(1, workload.IntMul, 0, None),
			none(2, workload.Branch, 7, None), none(3, workload.IntALU, 3, None)}},
		{name: "store-blocked", ring: disInflight, w: flat, dom: 3, ports: 4, lsq: disLSQ},
		{name: "store-resolves", ring: dis, w: flat, dom: 3, ports: 1, lsq: disLSQ},
		{name: "forwarding", ring: dis, w: flat, dom: 3, ports: 4, lsq: disLSQ},
	}
}

func TestQuietBoundSeedCases(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range seedCases() {
		for _, now := range []float64{0, 99, 100, 9049.9, 9050, 9375, 1e6} {
			checkQuiet(t, c, now, rng)
		}
	}
}

// randomCase draws a ring with producers never dispatched, in flight,
// complete and overwritten, a random period/window table, and queues
// whose sources point anywhere in that range.
func randomCase(rng *rand.Rand) *scanCase {
	tm := func() float64 { return float64(rng.Intn(64))*50 + float64(rng.Intn(2))*0.25 }
	ring := NewCompletionRing(64)
	const lo, hi = 100, 150
	for seq := uint64(lo); seq < hi; seq++ {
		dom := uint8(1 + rng.Intn(3))
		switch rng.Intn(4) {
		case 0: // never dispatched
		case 1:
			ring.Dispatch(seq, dom) // in flight
		case 2:
			ring.Dispatch(seq, dom)
			ring.Complete(seq, tm())
		case 3:
			ring.Dispatch(seq, dom)
			ring.Complete(seq, tm())
			ring.Dispatch(seq+64, uint8(1+rng.Intn(3))) // overwritten by a younger producer
		}
	}
	c := &scanCase{ring: ring, dom: uint8(1 + rng.Intn(3))}
	c.w.SingleClock = rng.Intn(5) == 0
	c.w.SyncWindowPS = float64(rng.Intn(4)) * 100
	for p := range c.w.Periods {
		c.w.Periods[p] = float64(250 * (1 + rng.Intn(6)))
		if rng.Intn(4) == 0 {
			c.w.Periods[p] += 0.125 * float64(rng.Intn(8)) // off-grid periods mid-slew
		}
	}
	srcOf := func() int64 {
		if rng.Intn(3) == 0 {
			return None
		}
		return int64(lo - 10 + rng.Intn(hi-lo+30)) // old, live, and younger-than-any seqs
	}
	classes := []workload.Class{workload.IntALU, workload.IntMul, workload.Branch}
	if rng.Intn(2) == 0 {
		c.max1, c.max2 = rng.Intn(3), rng.Intn(3)
		c.iq = []Entry{}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			c.iq = append(c.iq, Entry{Seq: uint64(200 + i), Class: classes[rng.Intn(3)],
				Src1: srcOf(), Src2: srcOf(), VisibleAt: tm()})
		}
	} else {
		c.ports = 1 + rng.Intn(2)
		c.lsq = []LSQEntry{}
		for i, n := 0, rng.Intn(12); i < n; i++ {
			c.lsq = append(c.lsq, LSQEntry{Seq: uint64(200 + i), IsStore: rng.Intn(3) == 0,
				Issued: rng.Intn(5) == 0, Block: uint64(rng.Intn(3)),
				Src1: srcOf(), Src2: srcOf(), VisibleAt: tm(), DoneAt: math.Inf(1)})
		}
	}
	return c
}

func TestQuietBoundSoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var quietIQ, quietLSQ, tight int
	for i := 0; i < 20_000; i++ {
		c := randomCase(rng)
		c.name = "random"
		q := checkQuiet(t, c, float64(rng.Intn(70))*50, rng)
		// Tally the non-selecting scans the bound checks ran on, so the
		// property cannot pass vacuously.
		switch {
		case math.IsInf(q, -1):
		case c.iq != nil:
			quietIQ++
		default:
			quietLSQ++
		}
		if !math.IsInf(q, 0) {
			tight++
		}
	}
	if quietIQ < 1000 || quietLSQ < 1000 || tight < 1000 {
		t.Errorf("too few quiet scans exercised: IQ %d, LSQ %d, finite bounds %d", quietIQ, quietLSQ, tight)
	}
}
