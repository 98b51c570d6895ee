// Package xrand is the simulator's counted random source: a concrete
// additive lagged-Fibonacci generator that reproduces math/rand's
// rand.New(rand.NewSource(seed)) stream bit for bit, with the
// (*rand.Rand) methods the model calls implemented directly on it, so the
// per-edge jitter draw and the workload generator's draws are direct
// calls instead of a rand.Rand → rand.Source interface chain.
//
// The generator's complete state — the feedback register, its two ring
// cursors and the advance count — is one plain value, State. Assigning
// a saved State back restores the stream position exactly, in O(1) and
// without allocating; no draw is replayed.
//
// Seeding needs math/rand's secret seeding table (rngCooked). Instead of
// copying it, Seed runs the standard library's own seeding, reads the
// first lfLen outputs, and inverts the recurrence
// x[n] = x[n−lfLen] + x[n−lfTap] to recover the register the standard
// source holds right after seeding.
package xrand

import "math/rand"

const (
	lfLen  = 607 // register length (math/rand's rngLen)
	lfTap  = 273 // feedback tap (math/rand's rngTap)
	lfMask = 1<<63 - 1
)

// State is a source's complete stream position. It holds no reference,
// so a copy is independent of the source it came from: assigning a
// saved State into any Counting continues the saved stream draw for
// draw.
type State struct {
	// vec is the register as a ring: vec[pos] holds x[n−lfLen] for the
	// next output x[n], and vec[tap] holds x[n−lfTap].
	vec      [lfLen]uint64
	pos, tap int
	n        uint64
}

// Calls returns how many times the source has advanced since Seed.
func (s *State) Calls() uint64 { return s.n }

// Counting is a counted, concrete equivalent of
// rand.New(rand.NewSource(seed)). It also implements rand.Source64.
// Its State is the whole stream position: save and restore a source by
// copying that field.
type Counting struct {
	State
	// seeder is the standard-library source Seed derives the register
	// from; kept so reseeding allocates nothing. It is never part of a
	// State, so sources restored from one snapshot share nothing.
	seeder rand.Source64
}

// NewCounting returns a source positioned at the start of seed's stream.
func NewCounting(seed int64) *Counting {
	c := &Counting{seeder: rand.NewSource(seed).(rand.Source64)}
	c.load()
	return c
}

// Seed resets the source to the start of seed's stream, as a fresh
// NewCounting(seed) would be, and resets the call counter.
func (c *Counting) Seed(seed int64) {
	c.seeder.Seed(seed)
	c.load()
}

// load reads the first lfLen outputs of the freshly seeded standard
// source and runs the recurrence backwards to the seeded register:
// x[n−lfLen] = x[n] − x[n−lfTap], first for n ≥ lfTap (both operands
// are outputs), then for n < lfTap (x[n−lfTap] is a register value the
// first pass recovered). Register value x[k], k < 0, lives at vec[k+lfLen].
func (c *Counting) load() {
	var out [lfLen]uint64
	for i := range out {
		out[i] = c.seeder.Uint64()
	}
	for n := lfTap; n < lfLen; n++ {
		c.vec[n] = out[n] - out[n-lfTap]
	}
	for n := 0; n < lfTap; n++ {
		c.vec[n] = out[n] - c.vec[n+lfLen-lfTap]
	}
	c.pos, c.tap = 0, lfLen-lfTap
	c.n = 0
}

// Uint64 implements rand.Source64: one advance of the register.
func (c *Counting) Uint64() uint64 {
	x := c.vec[c.pos] + c.vec[c.tap]
	c.vec[c.pos] = x
	if c.pos++; c.pos == lfLen {
		c.pos = 0
	}
	if c.tap++; c.tap == lfLen {
		c.tap = 0
	}
	c.n++
	return x
}

// Int63 implements rand.Source: a non-negative 63-bit integer.
func (c *Counting) Int63() int64 { return int64(c.Uint64() & lfMask) }

// u32 is (*rand.Rand).Uint32.
func (c *Counting) u32() uint32 { return uint32(c.Int63() >> 31) }

// int31 is (*rand.Rand).Int31.
func (c *Counting) int31() int32 { return int32(c.Int63() >> 32) }

// int63n is (*rand.Rand).Int63n for n > 0.
func (c *Counting) int63n(n int64) int64 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return c.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := c.Int63()
	for v > max {
		v = c.Int63()
	}
	return v % n
}

// int31n is (*rand.Rand).Int31n for n > 0.
func (c *Counting) int31n(n int32) int32 {
	if n&(n-1) == 0 { // n is power of two, can mask
		return c.int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := c.int31()
	for v > max {
		v = c.int31()
	}
	return v % n
}

// Intn returns a value in [0,n), as (*rand.Rand).Intn. It panics if
// n <= 0.
func (c *Counting) Intn(n int) int {
	if n <= 0 {
		panic("xrand: invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(c.int31n(int32(n)))
	}
	return int(c.int63n(int64(n)))
}

// Float64 returns a value in [0.0,1.0), as (*rand.Rand).Float64 (which
// redraws the 2⁻⁵³-rare value that rounds up to 1).
func (c *Counting) Float64() float64 {
again:
	f := float64(c.Int63()) / (1 << 63)
	if f == 1 {
		goto again
	}
	return f
}
