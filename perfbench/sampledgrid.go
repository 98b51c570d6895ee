package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"mcd/internal/bench"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/wire"
)

const (
	// gridOpsPer10s sizes the list in whole grids.
	gridOpsPer10s = 1
	// fidelityMeanBound and fidelityCellBound are mcdbench
	// -validate-fidelity's default error bounds.
	fidelityMeanBound = 0.02
	fidelityCellBound = 0.06
	// warmCacheCap is internal/sim's warm-snapshot cache bound: the
	// grid's reusable warm keys must fit in it, or timed grids rebuild
	// snapshots they should restore.
	warmCacheCap = 32
)

// gridOptions is the workload's grid: QuickOptions' Table 6 at sampled
// fidelity on two pool workers, with no result store. The seed does not
// change it, so every run simulates the identical grid.
func gridOptions() bench.Options {
	o := bench.QuickOptions()
	o.Fidelity = sim.FidelitySampled
	o.Workers = maxClients()
	return o
}

type namedResult struct {
	name string
	r    stats.Result
}

// directCells are the cells ValidateFidelity compares: the directly
// simulated configurations, whose sampled error is pure model bias.
func directCells(c bench.Comparison) []namedResult {
	return []namedResult{{"sync", c.Sync}, {"mcd-base", c.MCDBase}, {"attack-decay", c.AD}}
}

// compound reports whether a controller prepares its run with a search
// (an off-line schedule or a Global(·) match) before simulating it.
func compound(ctrl string) bool { return strings.HasPrefix(ctrl, "dynamic") || ctrl == "global" }

func runGrid(o bench.Options) (cs []bench.Comparison, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("grid failed: %v", r)
		}
	}()
	return o.RunAll(), nil
}

// gridCheck identifies one grid's output: a digest over every cell's
// canonical encoding, the simulated instructions, and the mean fidelity
// error against the exact reference.
type gridCheck struct {
	digest      string
	instr       uint64
	fidelityPct float64
}

// runChecked runs one grid and checks its direct cells against the
// exact reference within mcdbench -validate-fidelity's bounds.
func runChecked(o bench.Options, ref map[string]point) (gridCheck, error) {
	i0 := sim.SimulatedInstructions()
	cs, err := runGrid(o)
	if err != nil {
		return gridCheck{}, err
	}
	g := gridCheck{instr: sim.SimulatedInstructions() - i0}
	h := sha256.New()
	var rep bench.FidelityReport
	for _, c := range cs {
		for _, r := range []stats.Result{c.Sync, c.MCDBase, c.AD, c.Dyn1, c.Dyn5, c.GlobalAD, c.GlobalD1, c.GlobalD5} {
			b, err := resultcache.EncodeResult(r)
			if err != nil {
				return gridCheck{}, err
			}
			h.Write(b)
		}
		for _, d := range directCells(c) {
			want, ok := ref[c.Bench.Name+"/"+d.name]
			if !ok {
				return gridCheck{}, fmt.Errorf("no exact reference for %s/%s (regenerate with --regen)", c.Bench.Name, d.name)
			}
			cell := bench.FidelityCell{Benchmark: c.Bench.Name, Config: d.name,
				CPIErr: relErr(d.r.CPI(), want.CPI), EPIErr: relErr(d.r.EPI(), want.EPI)}
			rep.Cells = append(rep.Cells, cell)
			rep.MaxCPIErr = math.Max(rep.MaxCPIErr, cell.CPIErr)
			rep.MaxEPIErr = math.Max(rep.MaxEPIErr, cell.EPIErr)
			rep.MeanCPIErr += cell.CPIErr
			rep.MeanEPIErr += cell.EPIErr
		}
	}
	if n := float64(len(rep.Cells)); n > 0 {
		rep.MeanCPIErr /= n
		rep.MeanEPIErr /= n
	}
	g.digest = hex.EncodeToString(h.Sum(nil))
	g.fidelityPct = (rep.MeanCPIErr + rep.MeanEPIErr) / 2 * 100
	if fails := rep.Check(fidelityMeanBound, fidelityCellBound, 0); len(fails) > 0 {
		return g, fmt.Errorf("sampled grid out of fidelity bounds: %s", strings.Join(fails, "; "))
	}
	return g, nil
}

func relErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return math.Abs(got/want - 1)
}

// progress records a grid's completion timeline from bench's Progress
// hook.
type progress struct {
	mu sync.Mutex
	ev []progEvent
}

type progEvent struct {
	at          time.Time
	done, total int
}

func (p *progress) note(done, total int, _ string) {
	p.mu.Lock()
	p.ev = append(p.ev, progEvent{time.Now(), done, total})
	p.mu.Unlock()
}

// phaseTimes splits one grid's completion timeline into the runner's two
// batches — phase 1, the independent cells; phase 2, the Global(·)
// searches that depend on them — and measures the drain, the time fewer
// cells remained than workers, with the worker time left idle in it.
func phaseTimes(start time.Time, ev []progEvent, workers int) (p1, p2, drain, idle float64) {
	var phases [][]progEvent
	for i, e := range ev {
		if i == 0 || e.done < ev[i-1].done {
			phases = append(phases, nil)
		}
		phases[len(phases)-1] = append(phases[len(phases)-1], e)
	}
	prev := start
	for k, ph := range phases {
		last := ph[len(ph)-1].at
		if k == 0 {
			p1 = last.Sub(start).Seconds()
		} else {
			p2 += last.Sub(prev).Seconds()
		}
		for i := 0; i+1 < len(ph); i++ {
			if remaining := ph[i].total - ph[i].done; remaining < workers {
				dt := ph[i+1].at.Sub(ph[i].at).Seconds()
				drain += dt
				idle += float64(workers-remaining) * dt
			}
		}
		prev = last
	}
	return p1, p2, drain, idle
}

// traced returns the options of a traced grid: every cell goes through
// the Exec hook, rebuilt into its wire request (the key round trip is
// checked on the way) and run through the calls a fabric worker makes —
// Spec, then the stepped session — with every layer timed. Direct
// cells' warm keys are counted in direct; a direct cell whose key is new
// to the process builds its snapshot (a cold open). A compound cell's
// search has just built its final spec's snapshot, so its open restores.
func traced(o bench.Options, sp *spans, warm, direct *warmSet, prog *progress) bench.Options {
	o.Exec = wire.ExecAdapter(func(_ context.Context, _ string, req wire.RunRequest) ([]byte, error) {
		ctrl := req.ControllerName()
		prep := "control.prep.direct"
		if compound(ctrl) {
			prep = "control.prep"
		}
		var spec sim.Spec
		if _, err := sp.timed(prep, func() (err error) { spec, err = req.Spec(); return err }); err != nil {
			return nil, err
		}
		cold := warm.first(spec)
		if compound(ctrl) {
			cold = false
		} else {
			direct.first(spec)
		}
		body, _, err := simulate(spec, sp, cold)
		return body, err
	})
	if prog != nil {
		o.Progress = prog.note
	}
	return o
}

// runSampledGrid: one op is one QuickOptions Table 6 grid at sampled
// fidelity through bench.RunAll.
func runSampledGrid(cfg config) (*report, error) {
	ref, err := refFidelity()
	if err != nil {
		return nil, err
	}
	o := gridOptions()
	n := scaled(gridOpsPer10s, cfg.seconds)
	t := &tally{}
	// Every grid of the run must repeat the first exactly.
	var first gridCheck
	grid := func(o bench.Options, i int) error {
		g, err := runChecked(o, ref)
		if err != nil {
			return err
		}
		if i >= 0 && i == cfg.corrupt {
			g.digest = "corrupted"
		}
		if first.digest == "" {
			first = g
			return nil
		}
		if g != first {
			return fmt.Errorf("grid differs from the run's first: digest %.12s vs %.12s, %d vs %d instructions, fidelity error %.6f%% vs %.6f%%",
				g.digest, first.digest, g.instr, first.instr, g.fidelityPct, first.fidelityPct)
		}
		return nil
	}
	timed := func() pass { return closedLoop(n, 1, 0, func(i int) error { return grid(o, i) }, t) }
	if !cfg.trace {
		// Set-up is the process's first grid: it builds the warm
		// snapshots and fills the core pool, so every timed grid starts
		// from the same state.
		var err error
		setupS := timeSetup(func() { err = grid(o, -1) })
		if err != nil {
			return nil, fmt.Errorf("sampled-grid set-up: %w", err)
		}
		return t.report(endToEnd(setupS, timed(), 1)), nil
	}

	// The first traced grid runs in the fresh process, so its direct
	// cells' opens build the warm snapshots; the second runs at steady
	// state, as timed grids do, and gives the layer split.
	warm, direct := &warmSet{}, &warmSet{}
	sp1, sp2 := newSpans(), newSpans()
	if err := grid(traced(o, sp1, warm, direct, nil), -1); err != nil {
		return nil, fmt.Errorf("sampled-grid first traced grid: %w", err)
	}
	var prog progress
	var speed speedometer
	stop := speed.background()
	start := time.Now()
	err = grid(traced(o, sp2, warm, direct, &prog), -1)
	tracedWall := time.Since(start).Seconds()
	stop()
	if err != nil {
		return nil, fmt.Errorf("sampled-grid second traced grid: %w", err)
	}
	tf := speed.factor()
	p := timed()

	lv := newLayerValues()
	f := lv.speed(p)
	lv.runtime(p)
	lv.instructions(p)
	lv.simLayers(sp2)
	lv.set("sim.open_ms.cold", sp1.med("sim.open.cold")*1e3)
	lv.set("control.prep_ms", sp2.med("control.prep")*1e3)
	lv.set("sim.warm_keys", float64(direct.len()))
	t.check(direct.len() <= warmCacheCap, "the grid's direct cells use %d warm keys; the warm cache holds %d", direct.len(), warmCacheCap)
	lv.set("fidelity_err_pct", first.fidelityPct)
	prog.mu.Lock()
	p1, p2, drain, idle := phaseTimes(start, prog.ev, o.Workers)
	prog.mu.Unlock()
	lv.set("bench.phase1_ms", p1*1e3)
	lv.set("bench.phase2_ms", p2*1e3)
	lv.set("bench.drain_ms", drain*1e3)
	lv.tracing(median(p.lat)*f, tracedWall*tf)
	// The pool's workers share the grid's wall time: a grid takes its
	// cells' self time plus the workers' idle time, spread over them.
	w := float64(o.Workers) / tf
	parts := append(sp2.parts(w, "control.prep", "control.prep.direct", "sim.open.cold", "sim.open.warm",
		"pipeline.warmup", "pipeline.detailed", "pipeline.skipped", "control.decide", "sim.close", "wire.encode"),
		part{"runner idle in drains", idle / w})
	reconcile(t, lv, "sampled-grid", median(p.lat)*f, parts, reconcileTolerancePct)
	return t.report(lv.metrics()), nil
}
