package clock

import (
	"math"
	"testing"
	"testing/quick"

	"mcd/internal/xrand"
)

func TestPeriodFreqRoundTrip(t *testing.T) {
	for _, f := range []float64{250, 500, 617.1875, 1000} {
		if got := FreqMHz(PeriodPS(f)); math.Abs(got-f) > 1e-9 {
			t.Errorf("round trip %v MHz -> %v", f, got)
		}
	}
	if p := PeriodPS(1000); p != 1000 {
		t.Errorf("1 GHz period = %v ps, want 1000", p)
	}
	if p := PeriodPS(250); p != 4000 {
		t.Errorf("250 MHz period = %v ps, want 4000", p)
	}
}

func TestDomainStrings(t *testing.T) {
	want := map[Domain]string{
		FrontEnd: "frontend", Integer: "integer", FloatingPoint: "fp",
		LoadStore: "loadstore", Memory: "memory", Domain(99): "unknown",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("Domain(%d).String() = %q, want %q", d, d.String(), s)
		}
	}
	if Memory.Controllable() {
		t.Error("memory domain must not be controllable")
	}
	for d := Domain(0); d < NumControllable; d++ {
		if !d.Controllable() {
			t.Errorf("%v must be controllable", d)
		}
	}
}

func TestClockNoJitterIsPeriodic(t *testing.T) {
	c := New(1000, 0, 0, nil)
	for i := 0; i < 10; i++ {
		edge := c.Advance()
		if want := float64(i) * 1000; edge != want {
			t.Fatalf("edge %d at %v, want %v", i, edge, want)
		}
	}
	if c.Cycles() != 10 {
		t.Errorf("cycles = %d, want 10", c.Cycles())
	}
}

func TestClockFrequencyChangeTakesEffectNextPeriod(t *testing.T) {
	c := New(1000, 0, 0, nil)
	c.Advance() // edge at 0, next at 1000
	c.SetFrequencyMHz(500)
	if e := c.Advance(); e != 1000 {
		t.Fatalf("pending edge moved to %v, want 1000", e)
	}
	if e := c.Advance(); e != 3000 {
		t.Fatalf("post-change edge at %v, want 3000 (2000 ps period)", e)
	}
}

func TestClockJitterStatistics(t *testing.T) {
	rng := xrand.NewCounting(42)
	c := New(1000, 110, 0, rng)
	const n = 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		e := c.Advance()
		d := e - float64(i)*1000 // deviation from the ideal PLL grid
		sum += d
		sumsq += d * d
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean) > 5 {
		t.Errorf("jitter mean = %v ps, want ~0", mean)
	}
	if math.Abs(std-110) > 10 {
		t.Errorf("jitter stddev = %v ps, want ~110", std)
	}
}

func TestClockJitterDoesNotAccumulate(t *testing.T) {
	// Per-edge jitter must not random-walk away from the ideal grid:
	// after many cycles the edge stays within a few sigma of ideal.
	rng := xrand.NewCounting(9)
	c := New(1000, 110, 0, rng)
	var e float64
	for i := 0; i < 100000; i++ {
		e = c.Advance()
	}
	ideal := 99999.0 * 1000
	if math.Abs(e-ideal) > 6*110 {
		t.Errorf("edge drifted %v ps from ideal grid after 100k cycles", e-ideal)
	}
}

func TestClockEdgesMonotonic(t *testing.T) {
	rng := xrand.NewCounting(7)
	c := New(250, 110, 123.5, rng)
	prev := math.Inf(-1)
	for i := 0; i < 5000; i++ {
		e := c.Advance()
		if e <= prev {
			t.Fatalf("edge %d at %v not after %v", i, e, prev)
		}
		prev = e
	}
}

func TestVisibleWindow(t *testing.T) {
	const w = 300
	cases := []struct {
		produced, edge float64
		want           bool
	}{
		{0, 299, false},
		{0, 300, true},
		{0, 1000, true},
		{1000, 1100, false},
		{1000, 1300, true},
	}
	for _, c := range cases {
		if got := Visible(c.produced, c.edge, w); got != c.want {
			t.Errorf("Visible(%v,%v,%v) = %v, want %v", c.produced, c.edge, w, got, c.want)
		}
	}
}

func TestSchedulerOrdersEdges(t *testing.T) {
	clocks := make([]*Clock, NumControllable)
	freqs := []float64{1000, 800, 600, 400}
	for d := 0; d < NumControllable; d++ {
		clocks[d] = New(freqs[d], 0, float64(d)*7, nil)
	}
	s := NewScheduler(clocks)
	prev := math.Inf(-1)
	for i := 0; i < 1000; i++ {
		_, tm := s.Advance()
		if tm < prev {
			t.Fatalf("scheduler went backwards: %v after %v", tm, prev)
		}
		prev = tm
	}
	// Every clock must have made progress proportional to its frequency.
	if clocks[0].Cycles() <= clocks[3].Cycles() {
		t.Errorf("1 GHz clock (%d cycles) should out-tick 400 MHz clock (%d)",
			clocks[0].Cycles(), clocks[3].Cycles())
	}
}

func TestSchedulerTieBreaksTowardFrontEnd(t *testing.T) {
	clocks := make([]*Clock, NumControllable)
	for d := 0; d < NumControllable; d++ {
		clocks[d] = New(1000, 0, 0, nil)
	}
	s := NewScheduler(clocks)
	d, tm := s.Advance()
	if d != FrontEnd || tm != 0 {
		t.Errorf("first edge = (%v, %v), want (frontend, 0)", d, tm)
	}
}

// TestSchedulerAdvanceBefore checks that walking each domain's edges up
// to a horizon, domain by domain, consumes exactly the edges the global
// earliest-first order consumes before the horizon, at the same times,
// and leaves the same pending edges behind.
func TestSchedulerAdvanceBefore(t *testing.T) {
	build := func() *Scheduler {
		clocks := make([]*Clock, NumControllable)
		freqs := []float64{1000, 800, 600, 400}
		for d := 0; d < NumControllable; d++ {
			clocks[d] = New(freqs[d], 110, float64(d)*7, xrand.NewCounting(int64(d)+3))
		}
		return NewScheduler(clocks)
	}
	global, batched := build(), build()
	for _, h := range []float64{-1, 0, 5000.5, 5000.5, 20000, 123456} {
		var want [NumControllable][]float64
		for {
			d, tm := global.Peek()
			if !(tm < h) {
				break
			}
			global.Advance()
			want[d] = append(want[d], tm)
		}
		for d := Domain(0); d < NumControllable; d++ {
			var got []float64
			for tm, ok := batched.AdvanceBefore(d, h); ok; tm, ok = batched.AdvanceBefore(d, h) {
				got = append(got, tm)
			}
			if len(got) != len(want[d]) {
				t.Fatalf("h=%v domain %v: consumed %d edges, want %d", h, d, len(got), len(want[d]))
			}
			for i := range got {
				if got[i] != want[d][i] {
					t.Fatalf("h=%v domain %v edge %d at %v, want %v", h, d, i, got[i], want[d][i])
				}
			}
		}
		for d := range global.next {
			if global.next[d] != batched.next[d] || global.clocks[d].State() != batched.clocks[d].State() {
				t.Fatalf("h=%v domain %d: pending edge %v, want %v", h, d, batched.next[d], global.next[d])
			}
		}
	}
}

// Property: regardless of frequency and start offset, edges are strictly
// increasing and the average period converges to the nominal one when
// jitter is enabled.
func TestClockPeriodProperty(t *testing.T) {
	f := func(seed int64, fsel, offset uint8) bool {
		freq := 250 + float64(fsel)*2.9296875 // spans 250..997 MHz
		rng := xrand.NewCounting(seed)
		c := New(freq, 110, float64(offset), rng)
		first := c.Advance()
		prev := first
		const n = 2000
		for i := 0; i < n; i++ {
			e := c.Advance()
			if e <= prev {
				return false
			}
			prev = e
		}
		avg := (prev - first) / n
		return math.Abs(avg-PeriodPS(freq)) < PeriodPS(freq)*0.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
