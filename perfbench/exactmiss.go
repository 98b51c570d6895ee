package main

import (
	"errors"
	"fmt"
)

// missPool: every catalog benchmark × online controller × four slews,
// at a scale where one run costs about fifty milliseconds, so the cycle
// engine dominates each request.
var missPool = pool{name: "miss", window: 12_000, warmup: 6_000, interval: 250,
	slews: []float64{4.61, 4.91, 5.21, 5.51}}

const (
	// missOpsPer10s visits every (benchmark, controller) pair once per
	// ten nominal seconds.
	missOpsPer10s = 150
	// missSetupReps is how many times set-up runs; setup_s is the median.
	missSetupReps = 5
	// missWarmups is the set-up's fixed warm-up: one run per online
	// controller on each of the catalog's first two benchmarks.
	missWarmups = 2 * 5
)

// runExactMiss: one client sends synchronous POST /v1/runs of distinct
// exact cells to a server with the journal on and a fresh memory+disk
// store, so every request misses and simulates.
func runExactMiss(cfg config) (*report, error) {
	cells, err := missPool.draw(cfg.seed, scaled(missOpsPer10s, cfg.seconds))
	if err != nil {
		return nil, err
	}
	bodies, err := requestBodies(cells)
	if err != nil {
		return nil, err
	}
	want, err := wantDigests(cells)
	if err != nil {
		return nil, err
	}
	warmups, err := requestBodies(missPool.setup(missWarmups))
	if err != nil {
		return nil, err
	}
	t := &tally{}
	open := func(traced bool) (*stack, error) {
		s, err := newStack(cfg.dir, stackOpts{disk: true, journal: true, traced: traced, workers: 1})
		if err != nil {
			return nil, err
		}
		// A fixed warm-up at a slew no measured cell uses, so pooled cores
		// and the connection exist before timing starts.
		for _, b := range warmups {
			if _, err := s.postRun(b, "miss", "", false); err != nil {
				s.close()
				return nil, fmt.Errorf("exact-miss warm-up: %w", err)
			}
		}
		return s, nil
	}
	// send is op i against one stack.
	send := func(s *stack) func(int) error {
		return func(i int) error {
			_, err := s.postRun(bodies[i], "miss", want[i], i == cfg.corrupt)
			return err
		}
	}
	rejections := func(s *stack) (float64, error) {
		counters, err := s.scrape()
		rejected := family(counters, "mcd_jobs_rejected_total")
		t.check(rejected == 0, "%v submissions rejected", rejected)
		return rejected, err
	}

	if !cfg.trace {
		s, setupS, err := repeatSetup(missSetupReps, func() (*stack, error) { return open(false) }, (*stack).close)
		if err != nil {
			return nil, err
		}
		defer s.close()
		p := closedLoop(len(cells), 1, 1, send(s), t)
		if _, err := rejections(s); err != nil {
			return nil, err
		}
		return t.report(endToEnd(setupS, p, 1)), nil
	}

	// The traced run: the list through an untraced stack, a traced one and
	// the replay — the same requests through the public calls the service
	// makes, timed — interleaved op by op.
	s, err := open(false)
	if err != nil {
		return nil, err
	}
	defer s.close()
	ts, err := open(true)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	rp, err := newReplayer(cfg.dir, 0)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	onPath := make([]float64, len(cells))
	keys := make([]string, len(cells))
	replay := func(i int) error {
		rp.sp.setOp(i)
		req, key, stored, front, err := rp.probe(bodies[i])
		if err != nil {
			return err
		}
		if stored != nil {
			return errors.New("the replay's probe hit a fresh store")
		}
		out, back, err := rp.run(req, key)
		if err != nil {
			return err
		}
		if got := digest(out); got != want[i] {
			return fmt.Errorf("replayed body digest %.12s, want %.12s", got, want[i])
		}
		onPath[i], keys[i] = (front + back).Seconds(), key
		return nil
	}
	before, err := s.journalLines()
	if err != nil {
		return nil, err
	}
	passes := interleave(len(cells), 1, t, lane{1, send(s)}, lane{1, send(ts)}, lane{1, replay}, lane{1, ts.healthz})
	p, tp, rpass := passes[0], passes[1], passes[2]
	base := median(passes[3].lat)
	after, err := s.journalLines()
	if err != nil {
		return nil, err
	}
	rejected, err := rejections(s)
	if err != nil {
		return nil, err
	}
	recs := ts.records()
	t.check(p.use.instr == tp.use.instr && p.use.instr == rpass.use.instr,
		"simulated instructions drifted between passes: untraced %d, traced %d, replay %d",
		p.use.instr, tp.use.instr, rpass.use.instr)

	lv := newLayerValues()
	lv.speed(p)
	lv.runtime(p)
	lv.instructions(p)
	lv.set("journal.appends_per_op", float64(after-before)/float64(len(cells)))
	lv.set("service.rejections", rejected)
	// The set-up's warm-up jobs come first in the ring.
	queue := spanDurations(recs, "queue")
	queue = queue[min(len(warmups), len(queue)):]
	qw := median(queue)
	runs := spansByKey(recs, "run")
	var overhead, explained []float64
	for i, k := range keys {
		if r, ok := runs[k]; ok {
			overhead = append(overhead, tp.lat[i]-float64(r.DurUS)/1e6)
		}
		explained = append(explained, onPath[i]+qw+base)
	}
	sp := rp.sp
	lv.simLayers(sp)
	lv.set("wire.decode_us", sp.med("wire.decode")*1e6)
	lv.set("wire.key_us", sp.med("wire.key")*1e6)
	lv.set("control.resolve_us", sp.med("control.resolve")*1e6)
	lv.set("control.prep_ms", sp.med("control.prep")*1e3)
	lv.set("resultcache.probe_us.miss", sp.med("resultcache.probe.miss")*1e6)
	lv.set("resultcache.store_ms", sp.med("resultcache.store")*1e3)
	lv.set("journal.append_ms", sp.med("journal.append")*1e3)
	lv.set("service.queue_wait_ms", qw*1e3)
	lv.set("service.overhead_ms", median(overhead)*1e3)
	lv.set("service.http_baseline_us", base*1e6)
	lv.tracing(median(p.lat), median(tp.lat))
	parts := append([]part{{"http (healthz round trip)", base}, {"service.queue_wait", qw}},
		sp.opParts(medianIndex(explained), "wire.decode", "wire.key", "resultcache.probe.miss",
			"control.resolve", "journal.append", "control.prep", "sim.open.warm", "pipeline.warmup",
			"pipeline.detailed", "control.decide", "sim.close", "wire.encode", "resultcache.store")...)
	reconcile(t, lv, "exact-miss", median(p.lat), parts, reconcileTolerancePct)
	return t.report(lv.metrics()), nil
}
