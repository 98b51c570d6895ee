// Package workload provides the synthetic benchmark substrate that stands
// in for the MediaBench, Olden and SPEC2000 binaries of the paper (Table
// 5). Each benchmark is a deterministic statistical trace generator
// parameterized by instruction mix, dependency-distance distribution,
// branch-site population (which sets the achievable prediction accuracy),
// memory working set and access pattern (which set the cache miss rates),
// and a phase script (which produces the program-phase behaviour the
// paper's Figures 2 and 3 rely on).
//
// The substitution is documented in DESIGN.md: the control algorithm under
// study observes only queue occupancies and IPC, which emerge from the
// same pipeline feedback loop whether instructions come from an executed
// binary or from a trace.
package workload

import "mcd/internal/xrand"

// Class categorizes an instruction by the resource that executes it.
type Class uint8

// Instruction classes.
const (
	IntALU Class = iota // 1-cycle integer op (integer domain)
	IntMul              // integer multiply/divide
	FPAdd               // floating-point add/sub/cmp
	FPMul               // floating-point multiply
	FPDiv               // floating-point divide/sqrt
	Load                // memory read (load/store domain)
	Store               // memory write
	Branch              // conditional branch (integer domain)
	NumClasses
)

var classNames = [NumClasses]string{
	"int-alu", "int-mul", "fp-add", "fp-mul", "fp-div", "load", "store", "branch",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// FP reports whether the class executes in the floating-point domain.
func (c Class) FP() bool { return c == FPAdd || c == FPMul || c == FPDiv }

// Memory reports whether the class occupies the load/store queue.
func (c Class) Memory() bool { return c == Load || c == Store }

// Instr is one dynamic instruction of a trace.
type Instr struct {
	Seq    uint64 // dynamic instruction number, starting at 0
	Class  Class
	Dep1   uint32 // distance back to the producer of source 1 (0 = none)
	Dep2   uint32 // distance back to the producer of source 2 (0 = none)
	Addr   uint64 // effective address (Load/Store only)
	PC     uint64 // fetch PC; branch-prediction PC for branches
	Taken  bool   // branch outcome
	Target uint64 // branch target
}

// MaxDepDistance bounds how far back a dependency may reach; the pipeline
// keeps a completion ring of this depth.
const MaxDepDistance = 256

// Mix is the instruction-class distribution of a phase. Values are
// relative weights; they need not sum to one.
type Mix struct {
	IntALU, IntMul, FPAdd, FPMul, FPDiv, Load, Store, Branch float64
}

func (m Mix) weights() [NumClasses]float64 {
	return [NumClasses]float64{m.IntALU, m.IntMul, m.FPAdd, m.FPMul, m.FPDiv, m.Load, m.Store, m.Branch}
}

// FPFraction returns the fraction of instructions executing in the FP domain.
func (m Mix) FPFraction() float64 {
	w := m.weights()
	var fp, tot float64
	for c, v := range w {
		tot += v
		if Class(c).FP() {
			fp += v
		}
	}
	if tot == 0 {
		return 0
	}
	return fp / tot
}

// Phase describes one program phase. Zero-valued fields take the defaults
// documented on each field.
type Phase struct {
	// Frac is this phase's share of the benchmark window. Fractions are
	// normalized across phases.
	Frac float64
	// Mix is the instruction-class distribution.
	Mix Mix
	// WorkingSet is the data footprint in bytes (default 64 KiB).
	WorkingSet uint64
	// StrideFrac is the fraction of memory accesses that walk sequential
	// streams (default 0.7). High values give L1-resident behaviour.
	StrideFrac float64
	// ChaseFrac is the fraction of loads that are pointer chases: a
	// random address that depends on the previous load's value (Olden,
	// mcf). Default 0.
	ChaseFrac float64
	// CodeBytes is the instruction footprint (default 16 KiB).
	CodeBytes uint64
	// BranchSites is the number of static branch sites (default 256).
	BranchSites int
	// RandomSiteFrac is the fraction of sites with unpredictable
	// outcomes (default 0.05); it controls achievable accuracy.
	RandomSiteFrac float64
	// BiasPeriod: biased sites fall through every BiasPeriod-th
	// execution, loop-style (default 16).
	BiasPeriod int
	// DepMean is the mean register dependency distance (default 6);
	// smaller means less ILP.
	DepMean float64
	// Dep2Prob is the probability an instruction has a second source
	// dependency (default 0.4).
	Dep2Prob float64
}

func (p Phase) withDefaults() Phase {
	if p.WorkingSet == 0 {
		p.WorkingSet = 64 << 10
	}
	if p.StrideFrac == 0 {
		p.StrideFrac = 0.7
	}
	if p.CodeBytes == 0 {
		p.CodeBytes = 16 << 10
	}
	if p.BranchSites == 0 {
		p.BranchSites = 256
	}
	if p.RandomSiteFrac == 0 {
		p.RandomSiteFrac = 0.05
	}
	if p.BiasPeriod == 0 {
		p.BiasPeriod = 16
	}
	if p.DepMean == 0 {
		p.DepMean = 6
	}
	if p.Dep2Prob == 0 {
		p.Dep2Prob = 0.4
	}
	return p
}

// Profile is a complete benchmark model.
type Profile struct {
	Name   string
	Phases []Phase
	// Loop repeats the phase script until the window is exhausted
	// instead of stretching it to fill the window once.
	Loop bool
	// LoopInstr is the total length of one pass of the phase script when
	// Loop is set (default 200_000).
	LoopInstr uint64
	Seed      int64
}

// Generator produces a deterministic instruction stream.
type Generator interface {
	// Next fills in the next instruction, returning false when the
	// window is exhausted.
	Next(in *Instr) bool
	// NextWarm is Next for functional warming: it advances the stream
	// exactly as Next does, so the two interleave freely, but leaves
	// Dep1 and Dep2 zero and skips the work of sampling them.
	NextWarm(in *Instr) bool
	// Reset restarts the stream from the beginning; the regenerated
	// stream is identical.
	Reset()
	// Name identifies the workload.
	Name() string
	// Window returns the total number of instructions.
	Window() uint64
}

// NewGenerator instantiates the profile for a window of n instructions.
func (p Profile) NewGenerator(n uint64) Generator {
	g := &generator{prof: p, window: n}
	g.Reset()
	return g
}

type phaseState struct {
	Phase
	limit    uint64 // seq at which this phase ends
	cum      [NumClasses]float64
	counters []uint16 // per-branch-site counters
	randomAt int      // sites below this index are random-outcome
}

type generator struct {
	prof    Profile
	window  uint64
	rng     *xrand.Counting // counted so state is checkpointable (see xrand)
	seq     uint64
	phases  []phaseState
	phIdx   int
	pc      uint64
	lastLd  uint64 // seq of most recent load + 1 (0 = none)
	streams [4]uint64
	dataLo  uint64
}

func (g *generator) Name() string   { return g.prof.Name }
func (g *generator) Window() uint64 { return g.window }

func (g *generator) Reset() {
	seed := g.prof.Seed ^ 0x5eed
	if g.rng == nil {
		g.rng = xrand.NewCounting(seed)
	} else {
		// Re-seeding restores the exact state NewCounting constructs,
		// without reallocating the source.
		g.rng.Seed(seed)
	}
	g.seq = 0
	g.phIdx = 0
	g.pc = 0x10000
	g.lastLd = 0
	g.dataLo = 0x4000_0000
	for i := range g.streams {
		g.streams[i] = g.dataLo + uint64(i)*8192
	}

	// The phase script is a pure function of the profile and window:
	// build it once, and on later resets only clear the branch-site
	// counters (the script's only mutable state).
	if g.phases != nil {
		for i := range g.phases {
			clear(g.phases[i].counters)
		}
		return
	}

	phases := g.prof.Phases
	if len(phases) == 0 {
		phases = []Phase{{Frac: 1}}
	}
	var fracSum float64
	for _, p := range phases {
		f := p.Frac
		if f <= 0 {
			f = 1
		}
		fracSum += f
	}
	span := g.window
	if g.prof.Loop {
		span = g.prof.LoopInstr
		if span == 0 {
			span = 200_000
		}
	}
	var acc uint64
	for i, p := range phases {
		f := p.Frac
		if f <= 0 {
			f = 1
		}
		n := uint64(float64(span) * f / fracSum)
		if i == len(phases)-1 && !g.prof.Loop {
			n = span - acc
		}
		acc += n
		ps := phaseState{Phase: p.withDefaults(), limit: acc}
		w := ps.Mix.weights()
		var sum float64
		for c := 0; c < int(NumClasses); c++ {
			sum += w[c]
			ps.cum[c] = sum
		}
		if sum == 0 { // degenerate: all int ALU
			ps.cum = [NumClasses]float64{1, 1, 1, 1, 1, 1, 1, 1}
		}
		ps.counters = make([]uint16, ps.BranchSites)
		ps.randomAt = int(float64(ps.BranchSites) * ps.RandomSiteFrac)
		g.phases = append(g.phases, ps)
	}
}

// phase returns the phase for the current seq, advancing through the
// script (cyclically when looping).
func (g *generator) phase() *phaseState {
	span := g.phases[len(g.phases)-1].limit
	pos := g.seq
	if g.prof.Loop && span > 0 {
		pos = g.seq % span
	}
	start := uint64(0)
	if g.phIdx > 0 {
		start = g.phases[g.phIdx-1].limit
	}
	if pos < start {
		g.phIdx = 0 // wrapped around the loop
	}
	for g.phIdx < len(g.phases)-1 && pos >= g.phases[g.phIdx].limit {
		g.phIdx++
	}
	return &g.phases[g.phIdx]
}

func (g *generator) depDistance(mean float64, sample bool) uint32 {
	// Geometric distribution with the given mean, clamped to the
	// completion-ring depth and to the instructions generated so far.
	// Without sample only the draw is made: the stream stays aligned and
	// the distance is left zero.
	u := g.rng.Float64()
	if !sample {
		return 0
	}
	p := 1 / mean
	d := uint32(1)
	for u > p && d < MaxDepDistance {
		u = (u - p) / (1 - p)
		d++
	}
	if uint64(d) > g.seq {
		d = uint32(g.seq)
	}
	return d
}

func (g *generator) address(ps *phaseState, isLoad bool) (addr uint64, chased bool) {
	r := g.rng.Float64()
	if isLoad && r < ps.ChaseFrac {
		return g.dataLo + uint64(g.rng.Int63())%ps.WorkingSet, true
	}
	if r < ps.ChaseFrac+ps.StrideFrac {
		i := g.rng.Intn(len(g.streams))
		a := g.streams[i]
		g.streams[i] += 8
		if g.streams[i] >= g.dataLo+ps.WorkingSet {
			g.streams[i] = g.dataLo + uint64(g.rng.Int63())%ps.WorkingSet
		}
		return a, false
	}
	return g.dataLo + uint64(g.rng.Int63())%ps.WorkingSet, false
}

func (g *generator) Next(in *Instr) bool { return g.next(in, true) }

func (g *generator) NextWarm(in *Instr) bool { return g.next(in, false) }

func (g *generator) next(in *Instr, deps bool) bool {
	if g.seq >= g.window {
		return false
	}
	ps := g.phase()

	// Class selection from the phase mix.
	total := ps.cum[NumClasses-1]
	r := g.rng.Float64() * total
	cls := IntALU
	for c := 0; c < int(NumClasses); c++ {
		if r < ps.cum[c] {
			cls = Class(c)
			break
		}
	}

	*in = Instr{Seq: g.seq, Class: cls, PC: g.pc}

	// Register dependencies.
	if g.seq > 0 {
		mean := ps.DepMean
		in.Dep1 = g.depDistance(mean, deps)
		if g.rng.Float64() < ps.Dep2Prob {
			in.Dep2 = g.depDistance(mean, deps)
		}
	}

	switch cls {
	case Load, Store:
		addr, chased := g.address(ps, cls == Load)
		in.Addr = addr
		if chased && deps && g.lastLd > 0 {
			d := g.seq - (g.lastLd - 1)
			if d >= 1 && d <= MaxDepDistance {
				in.Dep1 = uint32(d)
			}
		}
		if cls == Load {
			g.lastLd = g.seq + 1
		}
	case Branch:
		site := g.rng.Intn(ps.BranchSites)
		in.PC = 0x10000 + uint64(site)*16
		in.Target = in.PC + 512
		if site < ps.randomAt {
			in.Taken = g.rng.Intn(2) == 0
		} else {
			ps.counters[site]++
			in.Taken = int(ps.counters[site])%ps.BiasPeriod != 0
		}
	}

	// PC walk: sequential within the code footprint; taken branches jump
	// to a pseudo-random block, exercising the I-cache over CodeBytes.
	if cls == Branch && in.Taken {
		g.pc = 0x10000 + (uint64(g.rng.Int63())%ps.CodeBytes)&^63
	} else {
		g.pc += 4
		if g.pc >= 0x10000+ps.CodeBytes {
			g.pc = 0x10000
		}
	}

	g.seq++
	return true
}

// GenState is a checkpoint of a generator's mutable state: stream
// position, phase cursor, PC walk, stride streams, per-phase branch-site
// counters, and the rng register by value (see xrand.State). The phase
// script itself is immutable and rebuilt from the profile, so it is not
// part of the checkpoint.
type GenState struct {
	Seq      uint64
	PhIdx    int
	PC       uint64
	LastLd   uint64
	Streams  [4]uint64
	Rng      xrand.State
	Counters [][]uint16 // deep copy, one slice per phase
}

// Checkpointer is implemented by generators whose exact position can be
// captured and restored — the mechanism behind checkpointed warmup
// reuse. Restore(Checkpoint()) is an identity: the stream continues
// exactly as it would have without the round trip.
type Checkpointer interface {
	Checkpoint() GenState
	Restore(GenState)
}

// Checkpoint implements Checkpointer with deep-copied counters, so the
// returned state stays valid after the generator advances.
func (g *generator) Checkpoint() GenState {
	s := GenState{
		Seq:      g.seq,
		PhIdx:    g.phIdx,
		PC:       g.pc,
		LastLd:   g.lastLd,
		Streams:  g.streams,
		Rng:      g.rng.State,
		Counters: make([][]uint16, len(g.phases)),
	}
	for i := range g.phases {
		s.Counters[i] = append([]uint16(nil), g.phases[i].counters...)
	}
	return s
}

// Restore implements Checkpointer. The receiver must be a generator of
// the same profile and window the checkpoint was captured from; the
// phase script (a pure function of both) is kept, only mutable state is
// overwritten. The checkpoint is copied from, never aliased, so one
// GenState can seed many generators.
func (g *generator) Restore(s GenState) {
	g.seq = s.Seq
	g.phIdx = s.PhIdx
	g.pc = s.PC
	g.lastLd = s.LastLd
	g.streams = s.Streams
	g.rng.State = s.Rng
	for i := range g.phases {
		if i < len(s.Counters) {
			copy(g.phases[i].counters, s.Counters[i])
		}
	}
}
