package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// seeds covers math/rand's seed normalization: zero (replaced by
// 89482311), negatives (shifted by 2³¹−1), values at or past 2³¹ and
// multiples of 2³¹−1 (reduced modulo it; a multiple reduces to zero).
var seeds = []int64{
	0, 1, -1, 42, -7919, 89482311,
	1 << 31, 1<<31 + 5, 1 << 40, math.MaxInt64, math.MinInt64,
	1<<31 - 1, 2 * (1<<31 - 1), -3 * (1<<31 - 1),
}

const draws = 100_000

// TestMatchesMathRand compares every method against
// rand.New(rand.NewSource(seed)) draw for draw, and checks the call
// counter against the advances the methods imply.
func TestMatchesMathRand(t *testing.T) {
	methods := []struct {
		name string
		got  func(*Counting) float64
		want func(*rand.Rand) float64
	}{
		{"Uint64", func(c *Counting) float64 { return float64(c.Uint64()) }, func(r *rand.Rand) float64 { return float64(r.Uint64()) }},
		{"Int63", func(c *Counting) float64 { return float64(c.Int63()) }, func(r *rand.Rand) float64 { return float64(r.Int63()) }},
		{"Uint32", func(c *Counting) float64 { return float64(c.u32()) }, func(r *rand.Rand) float64 { return float64(r.Uint32()) }},
		{"Int31", func(c *Counting) float64 { return float64(c.int31()) }, func(r *rand.Rand) float64 { return float64(r.Int31()) }},
		{"Float64", (*Counting).Float64, (*rand.Rand).Float64},
		{"NormFloat64", (*Counting).NormFloat64, (*rand.Rand).NormFloat64},
		{"Intn", func(c *Counting) float64 { return float64(c.Intn(1000)) }, func(r *rand.Rand) float64 { return float64(r.Intn(1000)) }},
		{"Intn-pow2", func(c *Counting) float64 { return float64(c.Intn(2)) }, func(r *rand.Rand) float64 { return float64(r.Intn(2)) }},
		{"Intn-wide", func(c *Counting) float64 { return float64(c.Intn(3 << 40)) }, func(r *rand.Rand) float64 { return float64(r.Intn(3 << 40)) }},
		{"Int31n", func(c *Counting) float64 { return float64(c.int31n(1<<30 + 1)) }, func(r *rand.Rand) float64 { return float64(r.Int31n(1<<30 + 1)) }},
		{"Int63n", func(c *Counting) float64 { return float64(c.int63n(1<<62 + 1)) }, func(r *rand.Rand) float64 { return float64(r.Int63n(1<<62 + 1)) }},
	}
	for _, m := range methods {
		for _, seed := range seeds {
			c := NewCounting(seed)
			ref := &counted{src: rand.NewSource(seed).(rand.Source64)}
			r := rand.New(ref)
			for i := 0; i < draws; i++ {
				g, w := m.got(c), m.want(r)
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s seed %d draw %d: got %v, want %v", m.name, seed, i, g, w)
				}
			}
			if c.Calls() != ref.n {
				t.Fatalf("%s seed %d: Calls() = %d, reference source advanced %d times", m.name, seed, c.Calls(), ref.n)
			}
		}
	}
}

// TestMixedDrawsMatchMathRand interleaves the methods the simulator uses,
// in a seed-dependent order, over one stream.
func TestMixedDrawsMatchMathRand(t *testing.T) {
	for _, seed := range seeds {
		c := NewCounting(seed)
		r := rand.New(rand.NewSource(seed))
		order := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < draws; i++ {
			var g, w float64
			switch order.Intn(4) {
			case 0:
				g, w = c.NormFloat64(), r.NormFloat64()
			case 1:
				g, w = c.Float64(), r.Float64()
			case 2:
				g, w = float64(c.Int63()), float64(r.Int63())
			default:
				n := 1 + order.Intn(64)
				g, w = float64(c.Intn(n)), float64(r.Intn(n))
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: got %v, want %v", seed, i, g, w)
			}
		}
	}
}

// TestStateCopyContinuesStream checks that a State saved mid-stream and
// assigned into another source — a fresh one, and a used one on another
// seed — continues exactly like a reference reseeded to the same seed
// and advanced by the same Calls() inline, through mixed draws.
func TestStateCopyContinuesStream(t *testing.T) {
	for _, seed := range seeds {
		a := NewCounting(seed)
		for i := 0; i < 5000; i++ {
			a.NormFloat64()
			if i%7 == 0 {
				a.Intn(10)
			}
			if i%11 == 0 {
				a.Float64()
			}
		}
		saved := a.State
		ref := NewCounting(seed)
		for i := uint64(0); i < a.Calls(); i++ {
			ref.Uint64()
		}
		fresh := NewCounting(seed)
		fresh.State = saved
		used := NewCounting(seed + 1)
		used.Float64()
		used.State = saved
		a.NormFloat64() // the saved copy must not follow its source
		for _, b := range []*Counting{fresh, used} {
			if b.Calls() != ref.Calls() {
				t.Fatalf("seed %d: copied Calls() = %d, want %d", seed, b.Calls(), ref.Calls())
			}
		}
		order := rand.New(rand.NewSource(seed ^ 0x5eed))
		for i := 0; i < draws; i++ {
			var w, g, u float64
			switch order.Intn(3) {
			case 0:
				w, g, u = ref.NormFloat64(), fresh.NormFloat64(), used.NormFloat64()
			case 1:
				w, g, u = ref.Float64(), fresh.Float64(), used.Float64()
			default:
				n := 1 + order.Intn(64)
				w, g, u = float64(ref.Intn(n)), float64(fresh.Intn(n)), float64(used.Intn(n))
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d: fresh copy diverges at draw %d", seed, i)
			}
			if math.Float64bits(u) != math.Float64bits(w) {
				t.Fatalf("seed %d: reused copy diverges at draw %d", seed, i)
			}
		}
	}
}

// TestReseedEqualsFresh checks that Seed puts a used source in exactly
// the state NewCounting constructs.
func TestReseedEqualsFresh(t *testing.T) {
	for _, seed := range seeds {
		c := NewCounting(seed ^ 99)
		for i := 0; i < 1234; i++ {
			c.NormFloat64()
		}
		c.Seed(seed)
		fresh := NewCounting(seed)
		if c.State != fresh.State {
			t.Fatalf("seed %d: reseeded state differs from a fresh source", seed)
		}
		for i := 0; i < draws; i++ {
			if c.Uint64() != fresh.Uint64() {
				t.Fatalf("seed %d: reseeded stream diverges at draw %d", seed, i)
			}
		}
	}
}

// counted counts the reference source's advances.
type counted struct {
	src rand.Source64
	n   uint64
}

func (c *counted) Int63() int64    { c.n++; return c.src.Int63() }
func (c *counted) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *counted) Seed(seed int64) { c.n = 0; c.src.Seed(seed) }
