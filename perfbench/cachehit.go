package main

import (
	"bytes"
	"errors"
	"fmt"

	"mcd/internal/resultcache"
	"mcd/internal/wire"
)

// hitPool's cells are tiny: this workload measures how the store
// answers, and the runs exist only to fill it.
var hitPool = pool{name: "hit", window: 2_000, warmup: 1_000, interval: 250, slews: []float64{4.81, 5.01}}

const (
	// hitOpsPer10s sizes the request sequence.
	hitOpsPer10s = 60_000
	// hitMaxMem bounds the store's memory tier below the keys' total
	// body bytes (checked at set-up), so both tiers answer: hot keys
	// from memory, the rest from disk, each disk hit promoting its key
	// and evicting another.
	hitMaxMem = 24 << 10
	// hitSkew is the Zipf exponent of the request sequence.
	hitSkew = 1.1
	// hitTailChunks is how many runs of consecutive ops tail_ms is the
	// median over: the p98.9 of a thousand ops repeats from run to run,
	// the eleventh slowest of sixty thousand (a scheduling hiccup) does not.
	hitTailChunks = 60
	// hitCalChunk is how many ops run between calibration slices: a few
	// tens of milliseconds' worth.
	hitCalChunk = 500
	// hitReconcileTolerancePct is cache-hit's reconcileTolerancePct. Its
	// layers leave 3–15% of an op unexplained: the handler's own work
	// beside decode, key and probe — the body written back and read,
	// headers — has no span, and on an 80-microsecond op it shows.
	hitReconcileTolerancePct = 25
	// hitSetupReps is how many times set-up runs; setup_s is the median.
	// Each fill simulates every key once, so three are plenty.
	hitSetupReps = 3
)

// runCacheHit: two clients send synchronous POST /v1/runs for keys the
// set-up filled, in a seeded skewed sequence; nothing is simulated.
func runCacheHit(cfg config) (*report, error) {
	keys := hitPool.perPair(cfg.seed)
	fill, err := requestBodies(keys)
	if err != nil {
		return nil, err
	}
	want, err := wantDigests(keys)
	if err != nil {
		return nil, err
	}
	seq := zipfSequence(cfg.seed, len(keys), scaled(hitOpsPer10s, cfg.seconds), hitSkew)
	clients := maxClients()
	t := &tally{}
	// stored holds the fill's miss bodies; every hit must repeat them
	// byte for byte.
	var stored [][]byte
	open := func(traced bool) (*stack, error) {
		s, err := newStack(cfg.dir, stackOpts{disk: true, maxMem: hitMaxMem, traced: traced, workers: 1})
		if err != nil {
			return nil, err
		}
		got, total := make([][]byte, len(fill)), 0
		for k, b := range fill {
			if got[k], err = s.postRun(b, "miss", want[k], false); err != nil {
				s.close()
				return nil, fmt.Errorf("cache-hit fill, key %d: %w", k, err)
			}
			total += len(got[k])
		}
		if total <= hitMaxMem {
			s.close()
			return nil, fmt.Errorf("the fill holds %d body bytes, within the %d-byte memory tier: the disk tier would never answer", total, hitMaxMem)
		}
		stored = got
		return s, nil
	}
	send := func(s *stack) func(int) error {
		return func(i int) error {
			k := seq[i]
			out, err := s.postRun(fill[k], "hit", "", i == cfg.corrupt)
			if err == nil && !bytes.Equal(out, stored[k]) {
				err = fmt.Errorf("hit body for key %d differs from its stored miss body", k)
			}
			return err
		}
	}
	rejections := func(s *stack, p pass) (float64, error) {
		counters, err := s.scrape()
		rejected := family(counters, "mcd_jobs_rejected_total")
		t.check(rejected == 0, "%v submissions rejected", rejected)
		t.check(p.use.instr == 0, "the hit sequence simulated %d instructions; the store must answer every request", p.use.instr)
		return rejected, err
	}

	if !cfg.trace {
		s, setupS, err := repeatSetup(hitSetupReps, func() (*stack, error) { return open(false) }, (*stack).close)
		if err != nil {
			return nil, err
		}
		defer s.close()
		p := closedLoop(len(seq), clients, hitCalChunk, send(s), t)
		if _, err := rejections(s, p); err != nil {
			return nil, err
		}
		return t.report(endToEnd(setupS, p, hitTailChunks)), nil
	}

	// The traced run: the sequence through an untraced stack, a traced one,
	// an untraced stack driven by one client and a single-client replay,
	// interleaved chunk by chunk; then a second replay, whose tier counts
	// must repeat the first's exactly. The one-client pass prices what the
	// second client costs each op in waiting for a CPU, a share of the
	// blocking path the replay's self times cannot show.
	s, err := open(false)
	if err != nil {
		return nil, err
	}
	defer s.close()
	s1, err := open(false)
	if err != nil {
		return nil, err
	}
	defer s1.close()
	ts, err := open(true)
	if err != nil {
		return nil, err
	}
	defer ts.close()
	var replays [2]*hitReplay
	for r := range replays {
		if replays[r], err = newHitReplay(cfg.dir, fill, stored, seq); err != nil {
			return nil, err
		}
		defer replays[r].close()
	}
	rp := replays[0]
	passes := interleave(len(seq), hitCalChunk, t, lane{clients, send(s)}, lane{clients, send(ts)},
		lane{1, send(s1)}, lane{1, rp.op}, lane{1, s1.healthz})
	p, tp, p1 := passes[0], passes[1], passes[2]
	base := median(passes[4].lat)
	for i := range seq {
		t.op(i, replays[1].op(i))
	}
	tiers := [2]resultcache.Stats{replays[0].tiers(), replays[1].tiers()}
	t.check(tiers[0] == tiers[1], "single-client replay tier counts drifted: %+v, then %+v", tiers[0], tiers[1])
	rejected, err := rejections(s, p)
	if err != nil {
		return nil, err
	}

	lv := newLayerValues()
	lv.speed(p)
	lv.runtime(p)
	lv.instructions(p)
	lv.set("service.rejections", rejected)
	var httpUS, explained []float64
	for i := range seq {
		httpUS = append(httpUS, tp.lat[i]-rp.front[i])
		explained = append(explained, rp.front[i]+base)
	}
	sp := rp.sp
	lv.set("wire.decode_us", sp.med("wire.decode")*1e6)
	lv.set("wire.key_us", sp.med("wire.key")*1e6)
	lv.set("control.resolve_us", sp.med("control.resolve")*1e6)
	lv.set("resultcache.probe_us.mem", sp.med("resultcache.probe.mem")*1e6)
	lv.set("resultcache.probe_us.disk", sp.med("resultcache.probe.disk")*1e6)
	tr := tiers[0]
	lv.set("resultcache.mem_hits", float64(tr.MemHits))
	lv.set("resultcache.disk_hits", float64(tr.DiskHits))
	if h := tr.MemHits + tr.DiskHits; h > 0 {
		lv.set("resultcache.mem_hit_ratio", float64(tr.MemHits)/float64(h))
	}
	lv.set("resultcache.evictions", float64(tr.Evictions))
	lv.set("service.http_us", median(httpUS)*1e6)
	lv.set("service.http_baseline_us", base*1e6)
	lv.tracing(median(p.lat), median(tp.lat))
	parts := append([]part{{"http (healthz round trip)", base}},
		sp.opParts(medianIndex(explained), "wire.decode", "wire.key", "resultcache.probe.mem", "resultcache.probe.disk")...)
	parts = append(parts, part{fmt.Sprintf("waiting for a CPU (%d clients, not 1)", clients), median(p.lat) - median(p1.lat)})
	reconcile(t, lv, "cache-hit", median(p.lat), parts, hitReconcileTolerancePct)
	return t.report(lv.metrics()), nil
}

// hitReplay replays the hit sequence from one client through the calls
// the handler makes on a hit — decode, Key, GetBytes — over a store
// configured like the service's and filled in the service's order,
// recording each op's blocking-path time. The registry resolution is
// timed too, apart from the path: the hit path pays it only inside Key.
type hitReplay struct {
	*replayer
	fill, stored [][]byte
	seq          []int
	front        []float64 // per op: seconds on the blocking path
	before       resultcache.Stats
}

func newHitReplay(parent string, fill, stored [][]byte, seq []int) (*hitReplay, error) {
	rp, err := newReplayer(parent, hitMaxMem)
	if err != nil {
		return nil, err
	}
	for k, b := range fill {
		var req wire.RunRequest
		if err := decodeStrict(b, &req); err != nil {
			rp.close()
			return nil, err
		}
		key, err := req.Key()
		if err == nil {
			err = rp.store.PutBytes(key, stored[k])
		}
		if err != nil {
			rp.close()
			return nil, err
		}
	}
	return &hitReplay{replayer: rp, fill: fill, stored: stored, seq: seq,
		front: make([]float64, len(seq)), before: rp.store.Stats()}, nil
}

func (h *hitReplay) op(i int) error {
	k := h.seq[i]
	h.sp.setOp(i)
	req, _, got, took, err := h.probe(h.fill[k])
	if err != nil {
		return err
	}
	if !bytes.Equal(got, h.stored[k]) {
		return errors.New("replayed hit differs from the stored miss body")
	}
	h.front[i] = took.Seconds()
	h.sp.setOp(-1) // off the hit path
	_, err = h.sp.timed("control.resolve", req.Validate)
	return err
}

// tiers returns the store's tier counts since the fill.
func (h *hitReplay) tiers() resultcache.Stats {
	after := h.store.Stats()
	return resultcache.Stats{
		MemHits:   after.MemHits - h.before.MemHits,
		DiskHits:  after.DiskHits - h.before.DiskHits,
		Misses:    after.Misses - h.before.Misses,
		Evictions: after.Evictions - h.before.Evictions,
	}
}
