package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"mcd/internal/wire"
	"mcd/internal/workload"
)

// rng is splitmix64: small and fully specified, so a seed names the same
// inputs on every Go release.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// onlineControllers are the controllers a single request runs without a
// compound search: the on-line policies and the two fixed baselines.
var onlineControllers = []string{"attack-decay", "pi", "coord", "mcd", "sync"}

// setupSlew is a regulator slew no pool draws from, so set-up requests
// never share a content address with a measured cell.
const setupSlew = 4.31

// pool is a family of distinct exact-fidelity cells at one scale: every
// catalog benchmark × every online controller × one cell per slew. The
// slew moves only the content address and the regulator's ramp, so the
// cells of one (benchmark, controller) pair cost the same to simulate.
type pool struct {
	name                     string
	window, warmup, interval uint64
	slews                    []float64
}

// cell is one simulation request drawn from a pool.
type cell struct {
	pool, bench, ctrl        string
	variant                  int // index into the pool's slews; -1 for set-up cells
	slew                     float64
	window, warmup, interval uint64
}

func (p pool) at(bench, ctrl string, variant int) cell {
	slew := setupSlew
	if variant >= 0 {
		slew = p.slews[variant]
	}
	return cell{p.name, bench, ctrl, variant, slew, p.window, p.warmup, p.interval}
}

// id names the cell in refs/digests.json.
func (c cell) id() string { return fmt.Sprintf("%s/%s/%s/%d", c.pool, c.bench, c.ctrl, c.variant) }

func (c cell) request() wire.RunRequest {
	slew := c.slew
	return wire.RunRequest{
		Benchmark: c.bench, Controller: c.ctrl, Window: c.window,
		Warmup: wire.U64(c.warmup), Interval: wire.U64(c.interval), SlewNsPerMHz: &slew,
	}
}

func benchmarkNames() []string {
	var names []string
	for _, b := range workload.Catalog() {
		names = append(names, b.Name)
	}
	return names
}

// all lists every cell of the pool.
func (p pool) all() []cell {
	var out []cell
	for _, b := range benchmarkNames() {
		for _, c := range onlineControllers {
			for v := range p.slews {
				out = append(out, p.at(b, c, v))
			}
		}
	}
	return out
}

// draw returns n distinct cells for a seed, balanced over the pool's
// (benchmark, controller) pairs: pairs are visited in a seeded order,
// each starting at a seeded slew, and every further pass over the pairs
// moves each pair on to its next slew. Whenever n is a multiple of the
// pair count, every seed runs the same mix of benchmarks and controllers
// — the same simulated work up to the slews — in a different order.
func (p pool) draw(seed uint64, n int) ([]cell, error) {
	type pair struct {
		bench, ctrl string
		first       int
	}
	r := rng{seed}
	var pairs []pair
	for _, b := range benchmarkNames() {
		for _, c := range onlineControllers {
			pairs = append(pairs, pair{b, c, r.intn(len(p.slews))})
		}
	}
	r.shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	if n > len(pairs)*len(p.slews) {
		return nil, fmt.Errorf("%d distinct cells requested from the %d-cell %s pool", n, len(pairs)*len(p.slews), p.name)
	}
	out := make([]cell, n)
	for i := range out {
		pr := pairs[i%len(pairs)]
		out[i] = p.at(pr.bench, pr.ctrl, (pr.first+i/len(pairs))%len(p.slews))
	}
	return out, nil
}

// perPair returns one cell per (benchmark, controller) pair, in catalog
// order, each at a slew the seed picks.
func (p pool) perPair(seed uint64) []cell {
	r := rng{seed}
	var out []cell
	for _, b := range benchmarkNames() {
		for _, c := range onlineControllers {
			out = append(out, p.at(b, c, r.intn(len(p.slews))))
		}
	}
	return out
}

// setup returns n distinct set-up cells, off every pool slew.
func (p pool) setup(n int) []cell {
	names := benchmarkNames()
	out := make([]cell, n)
	for i := range out {
		out[i] = p.at(names[i/len(onlineControllers)%len(names)], onlineControllers[i%len(onlineControllers)], -1)
	}
	return out
}

func requestBodies(cells []cell) ([][]byte, error) {
	out := make([][]byte, len(cells))
	for i, c := range cells {
		b, err := json.Marshal(c.request())
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// zipfSequence draws n key indexes with P(rank r) ∝ 1/r^s for a seed.
// The ranks are a fixed permutation of the keys, the same for every seed:
// the hot set decides how many keys the memory tier holds and so the
// mix of tiers that answer, and that mix must not move with the seed.
func zipfSequence(seed uint64, keys, n int, s float64) []int {
	rank := make([]int, keys)
	for i := range rank {
		rank[i] = i
	}
	fixed := rng{0x6d63642d68697473}
	fixed.shuffle(keys, func(i, j int) { rank[i], rank[j] = rank[j], rank[i] })
	r := rng{^seed}
	cdf := make([]float64, keys)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	out := make([]int, n)
	for i := range out {
		j := sort.SearchFloat64s(cdf, r.float()*sum)
		out[i] = rank[min(j, keys-1)]
	}
	return out
}
