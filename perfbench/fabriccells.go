package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"mcd/internal/sim"
	"mcd/internal/wire"
)

// fabricPool's cells are short — around twenty milliseconds of simulation —
// so dispatch (JSON, HTTP, the worker re-deriving the key, the body
// copied back) is a visible share of each one.
var fabricPool = pool{name: "fabric", window: 4_000, warmup: 2_000, interval: 250,
	slews: []float64{4.51, 4.71, 4.91, 5.11, 5.31, 5.51}}

const (
	// fabricBatch is the cells per batch op: two rounds on two slots.
	fabricBatch = 4
	// fabricOpsPer10s sizes the batch list. With fabricBatch it draws
	// four slews of every (benchmark, controller) pair per ten nominal
	// seconds, and no cell repeats within a run.
	fabricOpsPer10s = 150
	// fabricWarmupBatches is the set-up's fixed warm-up: both workers'
	// pools and connections exist before timing starts.
	fabricWarmupBatches = 8
	// fabricSetupReps is how many times set-up runs; setup_s is the
	// median.
	fabricSetupReps = 5
)

// batchPayload is the POST /v1/runs batch body.
type batchPayload struct {
	Runs []wire.RunRequest `json:"runs"`
}

func batchBody(cells []cell) ([]byte, error) {
	p := batchPayload{Runs: make([]wire.RunRequest, len(cells))}
	for i, c := range cells {
		p.Runs[i] = c.request()
	}
	return json.Marshal(p)
}

// fleetCounts are the fabric and admission counters a pass is checked
// by.
type fleetCounts struct {
	ok, errs, cancelled, hedges, requeues, steals, local, rejected float64
}

func fleet(m map[string]float64) fleetCounts {
	return fleetCounts{
		ok:        m[`mcd_fabric_dispatches_total{outcome="ok"}`],
		errs:      m[`mcd_fabric_dispatches_total{outcome="error"}`],
		cancelled: m[`mcd_fabric_dispatches_total{outcome="cancelled"}`],
		hedges:    m["mcd_fabric_hedges_total"],
		requeues:  family(m, "mcd_fabric_requeues_total"),
		steals:    m["mcd_fabric_steals_total"],
		local:     m["mcd_fabric_local_runs_total"],
		rejected:  family(m, "mcd_jobs_rejected_total"),
	}
}

func (a fleetCounts) minus(b fleetCounts) fleetCounts {
	return fleetCounts{a.ok - b.ok, a.errs - b.errs, a.cancelled - b.cancelled, a.hedges - b.hedges,
		a.requeues - b.requeues, a.steals - b.steals, a.local - b.local, a.rejected - b.rejected}
}

// checkBatch proves a fabric batch body byte-equal to the same batch
// assembled locally: every element must be a cell body whose SHA-256 is
// the cell's reference digest, and assembling the elements the way the
// service does must reproduce the body exactly.
func checkBatch(out []byte, want []string) error {
	var elems []json.RawMessage
	if err := json.Unmarshal(out, &elems); err != nil {
		return fmt.Errorf("batch body: %w", err)
	}
	if len(elems) != len(want) {
		return fmt.Errorf("batch body holds %d results, want %d", len(elems), len(want))
	}
	for k, e := range elems {
		if got := digest(append(append([]byte(nil), e...), '\n')); got != want[k] {
			return fmt.Errorf("batch cell %d digest %.12s, want %.12s", k, got, want[k])
		}
	}
	local, err := json.Marshal(elems)
	if err != nil {
		return err
	}
	if !bytes.Equal(append(local, '\n'), out) {
		return fmt.Errorf("batch body differs from its local assembly")
	}
	return nil
}

// runFabricCells: one op is one batch of short distinct exact cells sent
// to a coordinator-mode service with two one-slot workers.
func runFabricCells(cfg config) (*report, error) {
	nOps := scaled(fabricOpsPer10s, cfg.seconds)
	cells, err := fabricPool.draw(cfg.seed, nOps*fabricBatch)
	if err != nil {
		return nil, err
	}
	want, err := wantDigests(cells)
	if err != nil {
		return nil, err
	}
	payloads := make([][]byte, nOps)
	for i := range payloads {
		if payloads[i], err = batchBody(cells[i*fabricBatch : (i+1)*fabricBatch]); err != nil {
			return nil, err
		}
	}
	setupCells := fabricPool.setup(fabricWarmupBatches * fabricBatch)
	warmups := make([][]byte, fabricWarmupBatches)
	for i := range warmups {
		if warmups[i], err = batchBody(setupCells[i*fabricBatch : (i+1)*fabricBatch]); err != nil {
			return nil, err
		}
	}
	slots := maxClients()
	t := &tally{}
	open := func(traced bool) (*stack, error) {
		s, err := newStack(cfg.dir, stackOpts{traced: traced, fabric: slots, workers: slots})
		if err != nil {
			return nil, err
		}
		for _, w := range warmups {
			if _, err := s.batch(w); err != nil {
				s.close()
				return nil, fmt.Errorf("fabric-cells warm-up: %w", err)
			}
		}
		return s, nil
	}
	send := func(s *stack) func(int) error {
		return func(i int) error {
			out, err := s.batch(payloads[i])
			if err != nil {
				return err
			}
			if i == cfg.corrupt {
				out = corrupted(out)
			}
			return checkBatch(out, want[i*fabricBatch:(i+1)*fabricBatch])
		}
	}
	// checkFleet checks a stack's fleet counters over a pass: no hedge,
	// requeue, local run or rejection, and exactly one successful dispatch
	// per cell.
	checkFleet := func(s *stack, c0 map[string]float64) (fleetCounts, error) {
		c1, err := s.scrape()
		if err != nil {
			return fleetCounts{}, err
		}
		d := fleet(c1).minus(fleet(c0))
		t.check(d.hedges == 0 && d.requeues == 0 && d.local == 0 && d.rejected == 0,
			"a fleet pass hedged %v, requeued %v, ran %v locally and rejected %v; all must be 0",
			d.hedges, d.requeues, d.local, d.rejected)
		t.check(d.ok == float64(len(cells)) && d.errs == 0 && d.cancelled == 0,
			"a fleet pass dispatched ok=%v error=%v cancelled=%v; want exactly %d ok",
			d.ok, d.errs, d.cancelled, len(cells))
		return d, nil
	}

	if !cfg.trace {
		s, setupS, err := repeatSetup(fabricSetupReps, func() (*stack, error) { return open(false) }, (*stack).close)
		if err != nil {
			return nil, err
		}
		defer s.close()
		c0, err := s.scrape()
		if err != nil {
			return nil, err
		}
		// A batch keeps both CPUs busy, so the pass is calibrated in the
		// background, under that load, not in the idle gaps between ops:
		// over six paired runs that spread less in CPU per op (5.5% against
		// 8.8%), ops per second and tail.
		p := closedLoop(nOps, 1, 0, send(s), t)
		if _, err := checkFleet(s, c0); err != nil {
			return nil, err
		}
		return t.report(endToEnd(setupS, p, 1)), nil
	}

	// The traced run: the list through an untraced fabric, a traced one
	// and the replay — each batch through the calls the service and a
	// worker make for it: decode, Validate per run, then per cell Key, Spec
	// and the stepped session, and the service's assembly of the body —
	// interleaved op by op.
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
	sp := newSpans()
	front := make([]float64, nOps)
	keys := make([][]string, nOps)
	compute := map[string]float64{}
	replay := func(i int) error {
		sp.setOp(i)
		var onPath time.Duration
		var pl batchPayload
		d, err := sp.timed("wire.decode", func() error { return decodeStrict(payloads[i], &pl) })
		onPath += d
		if err != nil {
			return err
		}
		for _, req := range pl.Runs {
			d, err := sp.timed("control.resolve", req.Validate)
			onPath += d
			if err != nil {
				return err
			}
		}
		elems := make([]json.RawMessage, len(pl.Runs))
		for k, req := range pl.Runs {
			var key string
			if _, err := sp.timed("wire.key", func() (err error) { key, err = req.Key(); return err }); err != nil {
				return err
			}
			var spec sim.Spec
			prep, err := sp.timed("control.prep", func() (err error) { spec, err = req.Spec(); return err })
			if err != nil {
				return err
			}
			out, took, err := simulate(spec, sp, false)
			if err != nil {
				return err
			}
			if got := digest(out); got != want[i*fabricBatch+k] {
				return fmt.Errorf("replayed cell %d digest %.12s, want %.12s", k, got, want[i*fabricBatch+k])
			}
			compute[key] = (prep + took).Seconds()
			keys[i] = append(keys[i], key)
			elems[k] = out[:len(out)-1]
		}
		d, err = sp.timed("wire.assemble", func() error { _, err := json.Marshal(elems); return err })
		front[i] = (onPath + d).Seconds()
		return err
	}
	c0, err := s.scrape()
	if err != nil {
		return nil, err
	}
	tc0, err := ts.scrape()
	if err != nil {
		return nil, err
	}
	passes := interleave(nOps, 1, t, lane{1, send(s)}, lane{1, send(ts)}, lane{1, replay}, lane{1, ts.healthz})
	p, tp, rpass := passes[0], passes[1], passes[2]
	base := median(passes[3].lat)
	d, err := checkFleet(s, c0)
	if err != nil {
		return nil, err
	}
	if _, err := checkFleet(ts, tc0); err != nil {
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
	lv.set("fabric.dispatches", d.ok)
	lv.set("fabric.steals", d.steals)
	lv.set("fabric.hedges", d.hedges)
	lv.set("fabric.requeues", d.requeues)
	lv.set("fabric.local_runs", d.local)
	if att := d.ok + d.errs + d.cancelled; att > 0 {
		lv.set("fabric.useful_ratio", d.ok/att)
	}
	lv.set("service.rejections", d.rejected)
	dispatch := spansByKey(recs, "dispatch")
	// The set-up's warm-up jobs come first in the ring.
	queue := spanDurations(recs, "queue")
	queue = queue[min(len(warmups), len(queue)):]
	var dispatchS, overhead, explained, inFlight, queued []float64
	busy := 0.0
	for i := range payloads {
		var ivs [][2]int64
		for _, k := range keys[i] {
			r, ok := dispatch[k]
			if !ok {
				continue
			}
			ivs = append(ivs, [2]int64{r.StartUS, r.StartUS + r.DurUS})
			ds := float64(r.DurUS) / 1e6
			dispatchS = append(dispatchS, ds)
			overhead = append(overhead, ds-compute[k])
			busy += ds
		}
		q := 0.0
		if i < len(queue) {
			q = queue[i]
		}
		fl := float64(covered(ivs)) / 1e6
		inFlight = append(inFlight, fl)
		queued = append(queued, q)
		explained = append(explained, front[i]+3*base+q+fl)
	}
	lv.simLayers(sp)
	lv.set("wire.decode_us", sp.med("wire.decode")*1e6)
	lv.set("wire.key_us", sp.med("wire.key")*1e6)
	lv.set("control.resolve_us", sp.med("control.resolve")*1e6)
	lv.set("control.prep_ms", sp.med("control.prep")*1e3)
	lv.set("fabric.dispatch_ms", median(dispatchS)*1e3)
	lv.set("fabric.overhead_ms", median(overhead)*1e3)
	lv.set("fabric.worker_busy_ratio", busy/(float64(slots)*tp.wall))
	lv.set("service.queue_wait_ms", median(queue)*1e3)
	lv.set("service.http_baseline_us", base*1e6)
	lv.tracing(median(p.lat), median(tp.lat))
	m := medianIndex(explained)
	parts := append([]part{
		{"http (3 healthz round trips)", 3 * base},
		{"service.queue_wait", queued[m]},
		{"fabric (a dispatch in flight)", inFlight[m]},
	}, sp.opParts(m, "wire.decode", "control.resolve", "wire.assemble")...)
	reconcile(t, lv, "fabric-cells", median(p.lat), parts, reconcileTolerancePct)
	return t.report(lv.metrics()), nil
}
