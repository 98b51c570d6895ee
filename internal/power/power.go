// Package power implements a Wattch-style architectural power model: each
// microarchitectural structure has a per-access dynamic energy calibrated
// at the nominal supply voltage, scaled at run time by (V/Vnom)² for the
// instantaneous voltage of the structure's clock domain. Each domain also
// has a per-cycle clock-distribution energy; structures are clock gated
// when unused, so an idle domain cycle consumes only the ungateable
// fraction of its clock energy. MCD configurations pay a 10% clock energy
// overhead for the extra PLLs and clock drivers, per the paper's
// conservative assumption (≈2.9% of total energy).
package power

import "mcd/internal/clock"

// Component enumerates the energy-consuming structures of the modeled
// Alpha-21264-like core.
type Component uint8

// Components, grouped by owning clock domain.
const (
	ICache Component = iota // front end
	BPred                   // front end: all predictor tables
	BTB                     // front end
	Rename                  // front end: rename + dispatch logic
	ROB                     // front end: reorder buffer read/write

	IntIQ  // integer domain: issue-queue insert/select
	IntCAM // integer domain: per-entry wakeup CAM (per cycle per entry)
	IntRF  // integer register file port access
	IntALU // integer ALU op
	IntMul // integer multiply/divide op

	FPIQ  // floating-point domain
	FPCAM // per-entry wakeup CAM
	FPRF
	FPALU // FP add
	FPMul // FP multiply/divide/sqrt

	LSQ     // load/store domain: LSQ insert/search
	LSQCAM  // per-entry per-cycle address CAM
	DCache  // L1 D-cache access
	L2Cache // unified L2 access

	NumComponents
)

var componentNames = [NumComponents]string{
	"icache", "bpred", "btb", "rename", "rob",
	"int-iq", "int-cam", "int-rf", "int-alu", "int-mul",
	"fp-iq", "fp-cam", "fp-rf", "fp-alu", "fp-mul",
	"lsq", "lsq-cam", "dcache", "l2cache",
}

func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "unknown"
}

// DomainOf maps a component to the clock domain it resides in (Figure 1 of
// the paper: the L2 cache shares the load/store domain).
func DomainOf(c Component) clock.Domain {
	switch {
	case c <= ROB:
		return clock.FrontEnd
	case c <= IntMul:
		return clock.Integer
	case c <= FPMul:
		return clock.FloatingPoint
	default:
		return clock.LoadStore
	}
}

// componentDomain tabulates DomainOf so the per-access hot path is an
// array load (and Meter.Access stays inlinable).
var componentDomain = func() [NumComponents]clock.Domain {
	var t [NumComponents]clock.Domain
	for c := Component(0); c < NumComponents; c++ {
		t[c] = DomainOf(c)
	}
	return t
}()

// Params holds the calibration constants of the model. All energies are in
// picojoules at VNom.
type Params struct {
	// AccessPJ is the dynamic energy of one access to each component.
	AccessPJ [NumComponents]float64
	// ClockPJ is the per-cycle clock-tree energy of each controllable
	// domain at VNom.
	ClockPJ [clock.NumControllable]float64
	// GatedFraction is the fraction of a domain's per-cycle clock energy
	// that is still consumed when the domain does no work that cycle
	// (clock grid and PLL remain active; latch clocks are gated).
	GatedFraction float64
	// VNom is the supply voltage at which the energies are calibrated.
	VNom float64
	// MCDClockFactor multiplies clock energy in MCD configurations
	// (paper: 1.10, a deliberately conservative assumption).
	MCDClockFactor float64
}

// DefaultParams returns calibration constants loosely derived from Wattch's
// published Alpha-21264 breakdown at a 0.1 µm low-power process: clock
// distribution ≈ 30% of chip power, load/store (caches) the largest
// functional share, floating point smallest.
func DefaultParams() Params {
	p := Params{
		GatedFraction:  0.25,
		VNom:           1.20,
		MCDClockFactor: 1.10,
	}
	p.AccessPJ = [NumComponents]float64{
		ICache: 260, BPred: 60, BTB: 80, Rename: 140, ROB: 100,
		IntIQ: 110, IntCAM: 4, IntRF: 70, IntALU: 190, IntMul: 420,
		FPIQ: 110, FPCAM: 4, FPRF: 80, FPALU: 330, FPMul: 520,
		LSQ: 130, LSQCAM: 2, DCache: 310, L2Cache: 1250,
	}
	p.ClockPJ = [clock.NumControllable]float64{
		clock.FrontEnd:      850,
		clock.Integer:       800,
		clock.FloatingPoint: 600,
		clock.LoadStore:     950,
	}
	return p
}

// Meter accumulates energy for one simulation run.
type Meter struct {
	params   Params
	mcd      bool
	domainPJ [clock.NumDomains]float64
	clockDom [clock.NumControllable]float64
	accesses [NumComponents]uint64
	byComp   [NumComponents]float64
	// lastV/lastVS memoize the (V/Vnom)² factor: the pipeline charges
	// several accesses per tick at the same domain voltage, which only
	// moves while a regulator slews, so the division is paid once per
	// distinct voltage instead of per access.
	lastV, lastVS float64
}

// NewMeter returns a meter. mcd selects whether the MCD clock-energy
// overhead applies.
func NewMeter(params Params, mcd bool) *Meter {
	return &Meter{params: params, mcd: mcd}
}

// Reset returns the meter to its freshly constructed state, as NewMeter
// would build it, reusing the allocation for a reused core.
func (m *Meter) Reset(params Params, mcd bool) {
	*m = Meter{params: params, mcd: mcd}
}

// vScale returns the (V/Vnom)² dynamic-energy scaling factor. The memo
// hit is the hot path; the division lives in the miss slow path so the
// callers stay within the inlining budget.
func (m *Meter) vScale(v float64) float64 {
	if v == m.lastV {
		return m.lastVS
	}
	return m.vScaleMiss(v)
}

func (m *Meter) vScaleMiss(v float64) float64 {
	r := v / m.params.VNom
	m.lastV, m.lastVS = v, r*r
	return m.lastVS
}

// Access charges n accesses of component c at supply voltage v.
func (m *Meter) Access(c Component, v float64, n int) {
	if n == 0 {
		return
	}
	e := m.params.AccessPJ[c] * m.vScale(v) * float64(n)
	m.domainPJ[componentDomain[c]] += e
	m.byComp[c] += e
	m.accesses[c] += uint64(n)
}

// ClockTick charges one clock cycle of domain d at voltage v. active
// indicates whether the domain did any work this cycle; idle cycles pay
// only the ungateable fraction.
func (m *Meter) ClockTick(d clock.Domain, v float64, active bool) {
	e := m.params.ClockPJ[d] * m.vScale(v)
	if !active {
		e *= m.params.GatedFraction
	}
	if m.mcd {
		e *= m.params.MCDClockFactor
	}
	m.domainPJ[d] += e
	m.clockDom[d] += e
}

// Inject credits pJ picojoules of pre-scaled energy directly to domain d.
// The sampled fidelity tier uses it to charge analytically estimated
// energy for fast-forwarded control intervals; the energy is already in
// final units, so no voltage scaling or MCD factor applies here.
func (m *Meter) Inject(d clock.Domain, pJ float64) {
	m.domainPJ[d] += pJ
}

// TotalPJ returns total accumulated energy in picojoules.
func (m *Meter) TotalPJ() float64 {
	var t float64
	for _, e := range m.domainPJ {
		t += e
	}
	return t
}

// DomainPJ returns the energy accumulated by one domain.
func (m *Meter) DomainPJ(d clock.Domain) float64 { return m.domainPJ[d] }

// DomainClockPJ returns one controllable domain's clock-distribution
// energy — the time-proportional part of DomainPJ(d), which the sampled
// tier's energy extrapolation scales by estimated time rather than by
// instruction count.
func (m *Meter) DomainClockPJ(d clock.Domain) float64 { return m.clockDom[d] }

// ComponentPJ returns the energy accumulated by one component.
func (m *Meter) ComponentPJ(c Component) float64 { return m.byComp[c] }

// Accesses returns the access count of one component.
func (m *Meter) Accesses(c Component) uint64 { return m.accesses[c] }
