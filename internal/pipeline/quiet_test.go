package pipeline

import (
	"fmt"
	"math"
	"testing"

	"mcd/internal/clock"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// quietViolation checks every exec domain's quiet-until bound against a
// fresh scan of a copy of its issue structure: while c.now < quiet[d],
// no scan at any time before quiet[d] may select anything under the
// current ring and periods. It probes the current time and the last
// representable time before the bound, so a bound left stale by a
// missed readiness input shows up even when the skipped ticks happened
// not to change the run's output.
func quietViolation(c *Core) error {
	for d := clock.Integer; d <= clock.LoadStore; d++ {
		q := c.quiet[d]
		if !(c.now < q) {
			continue // a rescan is pending: the bound claims nothing
		}
		last := 1e18
		if !math.IsInf(q, 1) {
			last = math.Nextafter(q, math.Inf(-1))
		}
		for _, t := range []float64{c.now, last} {
			w := c.wake
			w.SetTick(t, uint8(d))
			n := 0
			switch d {
			case clock.Integer:
				a, m, _ := c.iiq.Clone().Select(c.cfg.IntALUs, intALUClasses, c.cfg.IntMuls, intMulClasses, &w, nil, nil)
				n = len(a) + len(m)
			case clock.FloatingPoint:
				a, m, _ := c.fiq.Clone().Select(c.cfg.FPALUs, fpALUClasses, c.cfg.FPMuls, fpMulClasses, &w, nil, nil)
				n = len(a) + len(m)
			case clock.LoadStore:
				out, _ := c.lsq.Clone().Select(c.cfg.MemPorts, &w, nil)
				n = len(out)
			}
			if n > 0 {
				return fmt.Errorf("domain %d quiet until %v at now %v, but a scan at %v selects %d", d, q, c.now, t, n)
			}
		}
	}
	return nil
}

// TestQuietBoundHoldsInRun checks the quiet-until invariant from inside
// running cores — every few hundred instructions, under a controller
// that keeps the regulators slewing (so periods move under standing
// bounds), in both clocking modes and with a sampled run's fast-forward
// and warm restore in the mix.
func TestQuietBoundHoldsInRun(t *testing.T) {
	for _, tc := range runCases() {
		t.Run(tc.name, func(t *testing.T) {
			ctrl := flipController()
			cfg := DefaultConfig()
			cfg.SingleClock = tc.single
			c := New(cfg, tc.prof.NewGenerator(40_000))
			checks := 0
			var bad error
			c.Run(RunOptions{
				Window: 40_000, Warmup: 2_000, IntervalLength: 250, SampleEvery: tc.sample,
				Controller: ctrl,
				OnInterval: func(stats.Interval) {
					checks++
					if bad == nil {
						bad = quietViolation(c)
					}
				},
			})
			if bad != nil {
				t.Fatal(bad)
			}
			if checks < 100 {
				t.Fatalf("only %d invariant checks ran", checks)
			}
		})
	}
}

// runCase is one in-run invariant scenario: a workload, a clocking mode
// and a sampling cadence, run under flipController.
type runCase struct {
	name   string
	prof   workload.Profile
	single bool
	sample int
}

// runCases covers every tick path: integer, FP and memory-bound mixes,
// the fully synchronous clock, and a sampled run's fast-forward and warm
// restore.
func runCases() []runCase {
	memProfile := func(seed int64) workload.Profile {
		return workload.Profile{
			Name: "mem-test", Seed: seed,
			Phases: []workload.Phase{{
				Mix:        workload.Mix{IntALU: 0.35, IntMul: 0.05, FPAdd: 0.1, FPMul: 0.05, Load: 0.3, Store: 0.1, Branch: 0.05},
				WorkingSet: 4 << 20, StrideFrac: 0.2,
			}},
		}
	}
	return []runCase{
		{"int", intProfile(5), false, 0},
		{"fp", fpProfile(6), false, 0},
		{"mem", memProfile(7), false, 0},
		{"mem-sync", memProfile(8), true, 0},
		{"mem-sampled", memProfile(9), false, 4},
	}
}

// flipController alternates every interval between slow and full-speed
// targets, so the regulators keep slewing and periods move under
// standing bounds.
func flipController() Controller {
	flip := false
	return controllerFunc{name: "flip", fn: func(IntervalView) [clock.NumControllable]float64 {
		flip = !flip
		if flip {
			return [clock.NumControllable]float64{0, 300, 350, 400}
		}
		return [clock.NumControllable]float64{0, 1000, 1000, 1000}
	}}
}
