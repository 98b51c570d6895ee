package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mcd/internal/clock"
	"mcd/internal/journal"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/wire"
)

// timedController times a controller's decisions. The pipeline calls
// nothing on a controller but Name and Observe, so a wrapped run's bytes
// are unchanged — the digest check on every replayed body proves it.
type timedController struct {
	inner   pipeline.Controller
	decided *time.Duration // decision time so far in this session
	sp      *spans
}

func (c timedController) Name() string { return c.inner.Name() }

func (c timedController) Observe(iv pipeline.IntervalView) [clock.NumControllable]float64 {
	t0 := time.Now()
	out := c.inner.Observe(iv)
	d := time.Since(t0)
	*c.decided += d
	c.sp.add("control.decide", d)
	return out
}

// simulate drives one spec through a stepped session the way the
// service and a fabric worker do — sim.Open, Step(1) to the end, Close —
// and encodes the result. It records the open (under sim.open.cold when
// the caller knows it builds a warm snapshot), each control interval's
// pipeline self time with decision time taken out, split into detailed,
// fast-forwarded and warmup intervals, the decisions, the close and the
// encode; it returns the body and the total time.
func simulate(spec sim.Spec, sp *spans, cold bool) ([]byte, time.Duration, error) {
	start := time.Now()
	var decided time.Duration
	if spec.Controller != nil {
		spec.Controller = timedController{inner: spec.Controller, decided: &decided, sp: sp}
	}
	open := "sim.open.warm"
	if cold {
		open = "sim.open.cold"
	}
	var ses *sim.Session
	if _, err := sp.timed(open, func() (err error) { ses, err = sim.Open(spec); return err }); err != nil {
		return nil, 0, err
	}
	var detailed, skipped int
	ses.Observe(func(iv stats.Interval) {
		if iv.Estimated {
			skipped++
			return
		}
		detailed++
		sp.count("pipeline.detailed_instr", float64(iv.Instructions))
	})
	for more := true; more; {
		d0, s0, dec0 := detailed, skipped, decided
		t0 := time.Now()
		more = ses.Step(1)
		self := time.Since(t0) - (decided - dec0)
		switch {
		case detailed > d0:
			sp.add("pipeline.detailed", self)
		case skipped > s0:
			sp.add("pipeline.skipped", self)
		default:
			sp.add("pipeline.warmup", self)
		}
	}
	var res stats.Result
	sp.timed("sim.close", func() error { res = ses.Close(); return nil })
	var body []byte
	_, err := sp.timed("wire.encode", func() (err error) { body, err = resultcache.EncodeResult(res); return err })
	return body, time.Since(start), err
}

// warmSet tracks the warm keys a process has opened: the fields
// internal/sim keys its shared warmup snapshots by. The first open of a
// sampled spec's key builds a snapshot; later opens restore it.
type warmSet struct {
	mu   sync.Mutex
	keys map[string]bool
}

// first reports whether s is the first sampled spec seen with its warm
// key, and records the key.
func (w *warmSet) first(s sim.Spec) bool {
	if !s.Sampled() {
		return false
	}
	k := fmt.Sprintf("cfg=%+v|prof=%+v|win=%d|warm=%d|iv=%d|init=%v|sample=%d",
		s.Config, s.Profile, s.Window, s.Warmup, s.IntervalLength, s.InitialFreqMHz, s.EffectiveSampleEvery())
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.keys == nil {
		w.keys = map[string]bool{}
	}
	if w.keys[k] {
		return false
	}
	w.keys[k] = true
	return true
}

func (w *warmSet) len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.keys)
}

// decodeStrict decodes a request body as the service does: unknown
// fields are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// replayer re-executes /v1/runs bodies through the public calls the
// service makes for them, in the service's order, timing each call into
// its layer. It owns a result store and a journal of its own.
type replayer struct {
	dir   string
	store *resultcache.Cache
	jnl   *journal.Journal
	sp    *spans
	seq   int
}

func newReplayer(parent string, maxMem int64) (*replayer, error) {
	dir, err := os.MkdirTemp(parent, "replay-")
	if err != nil {
		return nil, err
	}
	r := &replayer{dir: dir, sp: newSpans()}
	r.store, err = resultcache.New(resultcache.Options{Dir: filepath.Join(dir, "store"), MaxMemBytes: maxMem})
	if err == nil {
		r.jnl, err = journal.Open(filepath.Join(dir, "journal", "jobs.ndjson"))
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *replayer) close() {
	r.jnl.Close()
	os.RemoveAll(r.dir)
}

// probe replays the handler's front half of a synchronous run — decode,
// Key, GetBytes — and returns the request, its key, the stored body on a
// hit, and the time the calls took, all on the op's blocking path. The
// probe's span is named after the tier that answered.
func (r *replayer) probe(body []byte) (req wire.RunRequest, key string, stored []byte, took time.Duration, err error) {
	d, err := r.sp.timed("wire.decode", func() error { return decodeStrict(body, &req) })
	took += d
	if err != nil {
		return req, "", nil, took, err
	}
	d, err = r.sp.timed("wire.key", func() (err error) { key, err = req.Key(); return err })
	took += d
	if err != nil {
		return req, "", nil, took, err
	}
	before := r.store.Stats()
	t0 := time.Now()
	stored, _ = r.store.GetBytes(key)
	d = time.Since(t0)
	after := r.store.Stats()
	tier := "miss"
	switch {
	case after.MemHits > before.MemHits:
		tier = "mem"
	case after.DiskHits > before.DiskHits:
		tier = "disk"
	}
	r.sp.add("resultcache.probe."+tier, d)
	return req, key, stored, took + d, nil
}

// run replays the miss path's back half: the registry resolution the
// submission's validation performs, the journal's submit and running
// appends, the spec construction, the stepped simulation, the store
// write and the done append. Appends to one journal serialize on its
// lock and fsync, so in steady state each of them — the done append too,
// which the next request's submit waits out — sits on the blocking path.
func (r *replayer) run(req wire.RunRequest, key string) ([]byte, time.Duration, error) {
	r.seq++
	id := fmt.Sprintf("r%06d", r.seq)
	var took time.Duration
	step := func(layer string, fn func() error) error {
		d, err := r.sp.timed(layer, fn)
		took += d
		return err
	}
	if err := step("control.resolve", req.Validate); err != nil {
		return nil, 0, err
	}
	if err := step("journal.append", func() error {
		return r.jnl.Submit(journal.Submit{ID: id, Kind: journal.KindRun, Run: &req})
	}); err != nil {
		return nil, 0, err
	}
	if err := step("journal.append", func() error { return r.jnl.State(id, "running") }); err != nil {
		return nil, 0, err
	}
	var spec sim.Spec
	if err := step("control.prep", func() (err error) { spec, err = req.Spec(); return err }); err != nil {
		return nil, 0, err
	}
	body, d, err := simulate(spec, r.sp, false)
	took += d
	if err != nil {
		return nil, 0, err
	}
	if err := step("resultcache.store", func() error { return r.store.PutBytes(key, body) }); err != nil {
		return nil, 0, err
	}
	if err := step("journal.append", func() error { return r.jnl.State(id, "done") }); err != nil {
		return nil, 0, err
	}
	return body, took, nil
}
