package power

import (
	"math"
	"testing"
	"testing/quick"

	"mcd/internal/clock"
)

func TestDomainOfCoversAllComponents(t *testing.T) {
	want := map[Component]clock.Domain{
		ICache: clock.FrontEnd, BPred: clock.FrontEnd, BTB: clock.FrontEnd,
		Rename: clock.FrontEnd, ROB: clock.FrontEnd,
		IntIQ: clock.Integer, IntCAM: clock.Integer, IntRF: clock.Integer,
		IntALU: clock.Integer, IntMul: clock.Integer,
		FPIQ: clock.FloatingPoint, FPCAM: clock.FloatingPoint,
		FPRF: clock.FloatingPoint, FPALU: clock.FloatingPoint, FPMul: clock.FloatingPoint,
		LSQ: clock.LoadStore, LSQCAM: clock.LoadStore,
		DCache: clock.LoadStore, L2Cache: clock.LoadStore,
	}
	for c := Component(0); c < NumComponents; c++ {
		if got := DomainOf(c); got != want[c] {
			t.Errorf("DomainOf(%v) = %v, want %v", c, got, want[c])
		}
		if c.String() == "unknown" {
			t.Errorf("component %d has no name", c)
		}
	}
}

func TestAccessEnergyVoltageScaling(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, false)
	m.Access(IntALU, 1.2, 1)
	full := m.ComponentPJ(IntALU)
	if math.Abs(full-p.AccessPJ[IntALU]) > 1e-9 {
		t.Errorf("access at Vnom = %v pJ, want %v", full, p.AccessPJ[IntALU])
	}
	m2 := NewMeter(p, false)
	m2.Access(IntALU, 0.6, 1)
	if got, want := m2.ComponentPJ(IntALU), full*0.25; math.Abs(got-want) > 1e-9 {
		t.Errorf("access at Vnom/2 = %v pJ, want %v (quadratic scaling)", got, want)
	}
}

func TestClockGating(t *testing.T) {
	p := DefaultParams()
	m := NewMeter(p, false)
	m.ClockTick(clock.FloatingPoint, 1.2, true)
	active := m.DomainClockPJ(clock.FloatingPoint)
	m.ClockTick(clock.FloatingPoint, 1.2, false)
	idle := m.DomainClockPJ(clock.FloatingPoint) - active
	if want := active * p.GatedFraction; math.Abs(idle-want) > 1e-9 {
		t.Errorf("idle cycle = %v pJ, want %v (gated fraction %v)", idle, want, p.GatedFraction)
	}
}

func TestMCDClockOverhead(t *testing.T) {
	p := DefaultParams()
	sync := NewMeter(p, false)
	mcd := NewMeter(p, true)
	for i := 0; i < 100; i++ {
		sync.ClockTick(clock.Integer, 1.2, true)
		mcd.ClockTick(clock.Integer, 1.2, true)
	}
	ratio := mcd.DomainClockPJ(clock.Integer) / sync.DomainClockPJ(clock.Integer)
	if math.Abs(ratio-p.MCDClockFactor) > 1e-9 {
		t.Errorf("MCD clock overhead ratio = %v, want %v", ratio, p.MCDClockFactor)
	}
	// Access energy must NOT carry the MCD overhead.
	sync.Access(DCache, 1.2, 1)
	mcd.Access(DCache, 1.2, 1)
	if sync.ComponentPJ(DCache) != mcd.ComponentPJ(DCache) {
		t.Error("access energy should be identical between sync and MCD meters")
	}
}

func TestTotalsAreConsistent(t *testing.T) {
	m := NewMeter(DefaultParams(), true)
	m.Access(ICache, 1.2, 3)
	m.Access(FPALU, 1.0, 2)
	m.Access(L2Cache, 0.8, 1)
	m.ClockTick(clock.FrontEnd, 1.2, true)
	m.ClockTick(clock.LoadStore, 0.8, false)
	var sum float64
	for d := clock.Domain(0); d < clock.NumDomains; d++ {
		sum += m.DomainPJ(d)
	}
	if math.Abs(sum-m.TotalPJ()) > 1e-9 {
		t.Errorf("domain sum %v != total %v", sum, m.TotalPJ())
	}
	if m.Accesses(ICache) != 3 || m.Accesses(FPALU) != 2 {
		t.Error("access counts wrong")
	}
	m.Access(ICache, 1.2, 0) // zero accesses: no-op
	if m.Accesses(ICache) != 3 {
		t.Error("zero-access call must not count")
	}
}

// Property: energy is monotonically non-decreasing and scales quadratically
// in voltage for any component.
func TestEnergyQuadraticProperty(t *testing.T) {
	p := DefaultParams()
	f := func(csel uint8, vRaw uint8, n uint8) bool {
		c := Component(csel % uint8(NumComponents))
		v := 0.65 + float64(vRaw)/255*0.55
		m := NewMeter(p, false)
		m.Access(c, v, int(n))
		want := p.AccessPJ[c] * (v / 1.2) * (v / 1.2) * float64(n)
		return math.Abs(m.TotalPJ()-want) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
