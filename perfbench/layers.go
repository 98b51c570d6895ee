package main

import (
	"fmt"
	"math"
)

// layers lists every per-layer metric, in BENCHMARK.json's order, with
// its unit. Every traced run reports all of them; a layer the workload
// does not touch reports 0 (RATIONALE.md maps each metric to the
// workloads and end-to-end metrics it should move).
var layers = []struct{ name, unit string }{
	{"pipeline.ns_per_instr", "ns"},
	{"pipeline.interval_us.detailed", "us"},
	{"pipeline.interval_us.skipped", "us"},
	{"pipeline.skip_ratio", "ratio"},
	{"pipeline.sim_instructions", "count"},
	{"pipeline.sim_mips", "MIPS"},
	{"sim.open_ms.cold", "ms"},
	{"sim.open_ms.warm", "ms"},
	{"sim.close_ms", "ms"},
	{"sim.warm_keys", "count"},
	{"control.decide_us", "us"},
	{"control.prep_ms", "ms"},
	{"control.resolve_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.key_us", "us"},
	{"wire.encode_us", "us"},
	{"resultcache.probe_us.mem", "us"},
	{"resultcache.probe_us.disk", "us"},
	{"resultcache.probe_us.miss", "us"},
	{"resultcache.mem_hits", "count"},
	{"resultcache.disk_hits", "count"},
	{"resultcache.mem_hit_ratio", "ratio"},
	{"resultcache.evictions", "count"},
	{"resultcache.store_ms", "ms"},
	{"journal.append_ms", "ms"},
	{"journal.appends_per_op", "count"},
	{"service.queue_wait_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.http_us", "us"},
	{"service.http_baseline_us", "us"},
	{"service.rejections", "count"},
	{"fabric.dispatch_ms", "ms"},
	{"fabric.overhead_ms", "ms"},
	{"fabric.dispatches", "count"},
	{"fabric.steals", "count"},
	{"fabric.hedges", "count"},
	{"fabric.requeues", "count"},
	{"fabric.local_runs", "count"},
	{"fabric.useful_ratio", "ratio"},
	{"fabric.worker_busy_ratio", "ratio"},
	{"bench.phase1_ms", "ms"},
	{"bench.phase2_ms", "ms"},
	{"bench.drain_ms", "ms"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_pause_ms_per_op", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"fidelity_err_pct", "%"},
	{"machine.speed_factor", "ratio"},
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"reconcile.explained_ms", "ms"},
	{"reconcile.unexplained_pct", "%"},
}

// layerValues holds one traced run's per-layer metrics.
type layerValues map[string]float64

func newLayerValues() layerValues {
	l := layerValues{}
	for _, ly := range layers {
		l[ly.name] = 0
	}
	return l
}

func (l layerValues) set(name string, v float64) {
	if _, ok := l[name]; !ok {
		panic("perfbench: unlisted layer metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	l[name] = v
}

func (l layerValues) metrics() map[string]metric {
	m := make(map[string]metric, len(layers))
	for _, ly := range layers {
		m[ly.name] = metric{l[ly.name], ly.unit}
	}
	return m
}

// runtime records the Go runtime's share of an untraced pass, per op.
func (l layerValues) runtime(p pass) {
	n := float64(len(p.lat))
	l.set("runtime.gc_cycles_per_op", float64(p.use.gcCycles)/n)
	l.set("runtime.gc_pause_ms_per_op", p.use.pauseS*1e3/n)
	l.set("runtime.alloc_bytes_per_op", float64(p.use.allocs)/n)
}

// speed records the untraced pass's machine-speed factor and returns the
// factor the workload scales its wall times by.
func (l layerValues) speed(p pass) float64 {
	l.set("machine.speed_factor", p.speed)
	return p.scale()
}

// instructions records an untraced pass's simulated work: a count that
// must repeat exactly for a seed, and its rate.
func (l layerValues) instructions(p pass) {
	l.set("pipeline.sim_instructions", float64(p.use.instr))
	if p.wall > 0 {
		l.set("pipeline.sim_mips", float64(p.use.instr)/p.wall/1e6)
	}
}

// simLayers records the pipeline, session, controller and encoding
// layers from a replay's spans.
func (l layerValues) simLayers(sp *spans) {
	l.set("pipeline.interval_us.detailed", sp.med("pipeline.detailed")*1e6)
	l.set("pipeline.interval_us.skipped", sp.med("pipeline.skipped")*1e6)
	if det, skip := sp.n("pipeline.detailed"), sp.n("pipeline.skipped"); det+skip > 0 {
		l.set("pipeline.skip_ratio", float64(skip)/float64(det+skip))
	}
	if ins := sp.counted("pipeline.detailed_instr"); ins > 0 {
		l.set("pipeline.ns_per_instr", sp.total("pipeline.detailed")*1e9/ins)
	}
	l.set("sim.open_ms.cold", sp.med("sim.open.cold")*1e3)
	l.set("sim.open_ms.warm", sp.med("sim.open.warm")*1e3)
	l.set("sim.close_ms", sp.med("sim.close")*1e3)
	l.set("control.decide_us", sp.med("control.decide")*1e6)
	l.set("wire.encode_us", sp.med("wire.encode")*1e6)
}

// tracing records the tracing overhead: the traced median op time over
// the untraced one, both scaled to the reference speed.
func (l layerValues) tracing(untraced, traced float64) {
	l.set("trace.overhead_ms", (traced-untraced)*1e3)
	if untraced > 0 {
		l.set("trace.overhead_pct", (traced/untraced-1)*100)
	}
}

// reconcileTolerancePct bounds the share of the untraced median op time
// that the blocking path's layer self times may leave unexplained,
// either way: the rule that layers must add up. Measured shares sit
// within ±6% on every workload but cache-hit (hitReconcileTolerancePct).
const reconcileTolerancePct = 15

// part is one layer's self time on an op's blocking path, in seconds.
type part struct {
	name    string
	seconds float64
}

// reconcile prints the median op's blocking path as layer self times and
// checks the share of the untraced median op time they leave
// unexplained against tolerancePct. The passes compared ran
// interleaved, or come scaled to the reference machine speed each by its
// own factor, so the machine's speed moving between them shows as no gap.
func reconcile(t *tally, l layerValues, workload string, p50 float64, parts []part, tolerancePct float64) {
	fmt.Printf("reconcile %s: untraced p50 %.4f ms; blocking-path self time of the median op:\n", workload, p50*1e3)
	explained := 0.0
	for _, pt := range parts {
		fmt.Printf("  %-32s %12.4f ms\n", pt.name, pt.seconds*1e3)
		explained += pt.seconds
	}
	if p50 <= 0 {
		t.check(false, "%s: no untraced ops to reconcile against", workload)
		return
	}
	share := (p50 - explained) / p50 * 100
	fmt.Printf("  %-32s %12.4f ms, unexplained %+.1f%% (tolerance ±%.0f%%)\n", "explained", explained*1e3, share, tolerancePct)
	l.set("reconcile.explained_ms", explained*1e3)
	l.set("reconcile.unexplained_pct", share)
	t.check(math.Abs(share) <= tolerancePct,
		"%s: the layers leave %+.1f%% of the untraced p50 unexplained (tolerance ±%.0f%%)", workload, share, tolerancePct)
}
