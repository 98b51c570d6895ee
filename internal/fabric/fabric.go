// Package fabric is the distributed run fabric: a coordinator that
// shards content-addressed run specs across a fleet of mcdserve worker
// processes, and the worker side that executes them. Determinism makes
// distribution pure scheduling — any worker computing a spec key yields
// byte-identical results, so the coordinator is free to dispatch,
// hedge and retry work without ever affecting output bytes.
//
// The coordinator keeps one FIFO queue. Every registered worker runs a
// fixed number of dispatch slots (its advertised concurrency), and each
// idle slot takes the oldest queued spec its worker has not yet tried —
// any spec once every alive worker has tried it. A spec that outlives
// the hedge deadline (an adaptive latency percentile) while running is
// queued once more for an untried worker: the first result wins and the
// loser's request is cancelled; byte-identity makes the race
// unobservable. A failed dispatch goes back on the queue. Workers that
// miss enough heartbeats are dropped; when none remain the coordinator
// computes the queue itself, so a coordinator with zero workers is
// exactly a single-process server.
package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"mcd/internal/metrics"
	"mcd/internal/resultcache"
	"mcd/internal/trace"
	"mcd/internal/wire"
)

// ErrClosed reports a dispatch against a closed coordinator.
var ErrClosed = errors.New("fabric: coordinator closed")

// Options configures a Coordinator.
type Options struct {
	// Cache is the shared memoization tier: every Execute goes through
	// it, so a result computed anywhere in the fleet is a hit
	// everywhere and concurrent requests for one key single-flight
	// into one dispatch. Nil disables memoization (every Execute
	// dispatches).
	Cache *resultcache.Cache
	// Metrics receives the mcd_fabric_* instrument families; nil uses
	// a private registry (the instruments still exist, just unseen).
	Metrics *metrics.Registry
	// Trace, if non-nil, receives dispatch and hedge records in the
	// process-wide flight-recorder ring.
	Trace *trace.Ring
	// Logger receives fleet lifecycle logs; nil discards them.
	Logger *slog.Logger
	// Heartbeat is the cadence workers are told to re-register at
	// (default 1s); a worker missing deadBeats consecutive beats is
	// presumed dead.
	Heartbeat time.Duration
	// HedgeAfter fixes the hedged-retry deadline; zero selects the
	// adaptive policy (2× the p95 of recent dispatch latencies).
	HedgeAfter time.Duration
	// Client issues the dispatch and registration HTTP requests; nil
	// uses a default client with no overall timeout (dispatches are
	// bounded by hedging and context cancellation, not a wall clock).
	Client *http.Client
}

const (
	// deadBeats is how many missed heartbeats mark a worker dead.
	deadBeats = 5
	// latWindow is how many recent dispatch latencies the adaptive
	// hedge deadline is computed over.
	latWindow = 64
	// maxAttempts is the number of failed dispatches after which a
	// spec's error is surfaced. Hedges do not count.
	maxAttempts = 3
	// queueFactor sets the saturation threshold: the fleet is Saturated
	// once queued plus in-flight work reaches queueFactor × its slots.
	queueFactor = 4
)

// result is one completed attempt at an item.
type result struct {
	body   []byte
	err    error
	remote bool
}

// item is one spec execution in flight through the fleet. It may sit in
// the queue more than once (a hedge beside a requeue); the finished flag
// makes every copy after the first delivery inert.
type item struct {
	key string
	req wire.RunRequest
	ctx context.Context

	resCh chan result // buffered 1; first deliver wins

	// Guarded by Coordinator.mu.
	tried  []string // workers this item was dispatched to
	hedged bool
	fails  int

	mu       sync.Mutex
	finished bool
	cancels  []context.CancelFunc
}

// begin opens one attempt: a cancellable sub-context of the caller's,
// registered so the winning attempt can cancel the rest. Returns
// ok=false when the item is already finished (a stale queue copy — the
// slot just drops it).
func (it *item) begin() (context.Context, bool) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.finished {
		return nil, false
	}
	actx, cancel := context.WithCancel(it.ctx)
	it.cancels = append(it.cancels, cancel)
	return actx, true
}

// deliver hands the item's first result to its waiter and cancels
// every other outstanding attempt; later deliveries report false.
func (it *item) deliver(r result) bool {
	it.mu.Lock()
	if it.finished {
		it.mu.Unlock()
		return false
	}
	it.finished = true
	cancels := it.cancels
	it.cancels = nil
	it.mu.Unlock()
	it.resCh <- r
	for _, c := range cancels {
		c()
	}
	return true
}

// finish marks the item dead (waiter gone or satisfied) and cancels
// outstanding attempts.
func (it *item) finish() {
	it.mu.Lock()
	it.finished = true
	cancels := it.cancels
	it.cancels = nil
	it.mu.Unlock()
	for _, c := range cancels {
		c()
	}
}

// worker is the coordinator's view of one registered worker.
type worker struct {
	id    string
	url   string
	slots int

	// Guarded by Coordinator.mu.
	inflight int
	lastBeat time.Time
	simMIPS  float64
	gone     bool
}

// coordMetrics bundles the coordinator's counters; the queue and
// per-worker gauges are callback families sampled at scrape.
type coordMetrics struct {
	dispatches *metrics.CounterVec // outcome: ok | error | cancelled
	requeues   *metrics.CounterVec // reason: error
	hedges     *metrics.Counter
	localRuns  *metrics.Counter
}

// Coordinator owns the worker registry, the queue and the dispatch
// slots. Construct with NewCoordinator.
type Coordinator struct {
	cache      *resultcache.Cache
	trc        *trace.Ring
	log        *slog.Logger
	client     *http.Client
	hb         time.Duration
	dead       time.Duration
	hedgeAfter time.Duration
	met        *coordMetrics

	mu      sync.Mutex
	cond    *sync.Cond // signalled whenever the queue or the fleet changes
	queue   []*item
	workers map[string]*worker // alive workers only
	closed  bool

	wg   sync.WaitGroup // in-flight Execute calls, for the shutdown drain
	stop chan struct{}  // janitor shutdown

	latMu sync.Mutex
	lats  [latWindow]float64
	latN  int
}

// NewCoordinator starts a coordinator (and its dead-worker janitor).
func NewCoordinator(o Options) *Coordinator {
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	reg := o.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	c := &Coordinator{
		cache:      o.Cache,
		trc:        o.Trace,
		log:        o.Logger,
		client:     o.Client,
		hb:         o.Heartbeat,
		dead:       deadBeats * o.Heartbeat,
		hedgeAfter: o.HedgeAfter,
		workers:    map[string]*worker{},
		stop:       make(chan struct{}),
	}
	c.cond = sync.NewCond(&c.mu)
	c.met = &coordMetrics{
		dispatches: reg.CounterVec("mcd_fabric_dispatches_total", "Dispatch attempts to workers, by outcome: ok, error (requeued), or cancelled (hedge loser or departed caller).", "outcome"),
		requeues:   reg.CounterVec("mcd_fabric_requeues_total", "Specs put back on the queue, by reason: error (dispatch failed).", "reason"),
		hedges:     reg.Counter("mcd_fabric_hedges_total", "Running specs queued again for a second worker after the hedge deadline; the first byte-identical result wins."),
		localRuns:  reg.Counter("mcd_fabric_local_runs_total", "Specs computed on the coordinator itself because no workers were registered or alive."),
	}
	// Pre-touch the closed label sets so never-fired counters scrape
	// as 0 from the first request on (the metrics contract).
	for _, outcome := range []string{"ok", "error", "cancelled"} {
		c.met.dispatches.With(outcome)
	}
	c.met.requeues.With("error")
	reg.GaugeFunc("mcd_fabric_workers", "Workers currently registered and heartbeating.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.workers))
	})
	reg.GaugeFunc("mcd_fabric_queue", "Specs waiting for a dispatch slot.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.queue))
	})
	reg.GaugeVecFunc("mcd_fabric_worker_busy", "In-flight dispatches per worker (coordinator's view).", "worker",
		c.workerGauges(func(w *worker) float64 { return float64(w.inflight) }))
	reg.GaugeVecFunc("mcd_fabric_worker_sim_mips", "Worker self-reported simulated MIPS from its last heartbeat.", "worker",
		c.workerGauges(func(w *worker) float64 { return w.simMIPS }))
	reg.GaugeVecFunc("mcd_fabric_worker_last_heartbeat_seconds", "Seconds since the worker's last heartbeat.", "worker",
		c.workerGauges(func(w *worker) float64 { return time.Since(w.lastBeat).Seconds() }))
	go c.janitor()
	return c
}

// workerGauges builds a scrape callback sampling one per-worker value.
func (c *Coordinator) workerGauges(f func(w *worker) float64) func() map[string]float64 {
	return func() map[string]float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		out := make(map[string]float64, len(c.workers))
		for id, w := range c.workers {
			out[id] = f(w)
		}
		return out
	}
}

// Handler exposes the coordinator's registration endpoint:
//
//	POST /v1/fabric/register   worker hello/heartbeat (wire.FabricHello)
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fabric/register", func(w http.ResponseWriter, r *http.Request) {
		var h wire.FabricHello
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&h); err != nil || h.ID == "" || h.URL == "" {
			http.Error(w, `{"error":"bad hello: need id and url"}`, http.StatusBadRequest)
			return
		}
		welcome := c.Register(h)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(welcome)
	})
	return mux
}

// Register records one worker hello/heartbeat, starting its dispatch
// slots on first contact. Re-registration after the coordinator
// declared the worker dead is a fresh join.
func (c *Coordinator) Register(h wire.FabricHello) wire.FabricWelcome {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return wire.FabricWelcome{}
	}
	w, ok := c.workers[h.ID]
	if !ok {
		slots := h.Slots
		if slots <= 0 {
			slots = 1
		}
		w = &worker{id: h.ID, url: strings.TrimRight(h.URL, "/"), slots: slots}
		c.workers[h.ID] = w
		for i := 0; i < slots; i++ {
			go c.slot(w)
		}
		c.log.Info("fabric: worker joined", "worker", h.ID, "url", w.url, "slots", slots)
		c.cond.Broadcast()
	}
	w.lastBeat = now
	w.simMIPS = h.SimMIPS
	return wire.FabricWelcome{OK: true, HeartbeatMillis: c.hb.Milliseconds()}
}

// Workers returns the number of registered (alive) workers.
func (c *Coordinator) Workers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// Saturated reports whether the whole fleet is saturated: queued plus
// in-flight work at queueFactor times the fleet's total dispatch slots.
// With no workers it reports false — the coordinator computes locally
// then, and the manager's own queue bound is the backpressure.
func (c *Coordinator) Saturated() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	slots, load := 0, len(c.queue)
	for _, w := range c.workers {
		slots += w.slots
		load += w.inflight
	}
	return slots > 0 && load >= slots*queueFactor
}

// Execute computes the canonical result body for req (content address
// key) somewhere in the fleet, consulting the shared store first. The
// signature matches the service layer's dispatch hook. Concurrent
// calls for one key single-flight through the store into one dispatch.
func (c *Coordinator) Execute(ctx context.Context, key string, req wire.RunRequest) ([]byte, bool, error) {
	remote := false
	body, hit, err := c.cache.DoBytes(key, func() ([]byte, error) {
		b, wasRemote, err := c.executeFleet(ctx, key, req)
		if err == nil && wasRemote {
			remote = true
		}
		return b, err
	}, nil)
	if remote {
		c.cache.NoteRemoteLoad()
	}
	return body, hit, err
}

// executeFleet runs one cache-missing spec through the fleet: queue it,
// hedge at the deadline, return the first result. With no workers it
// computes locally — a coordinator alone is exactly a single-process
// server.
func (c *Coordinator) executeFleet(ctx context.Context, key string, req wire.RunRequest) ([]byte, bool, error) {
	it := &item{key: key, req: req, ctx: ctx, resCh: make(chan result, 1)}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClosed
	}
	if len(c.workers) == 0 {
		c.mu.Unlock()
		c.runLocal(it)
		r := <-it.resCh
		return r.body, r.remote, r.err
	}
	c.pushLocked(it)
	c.wg.Add(1)
	c.mu.Unlock()
	defer c.wg.Done()
	defer it.finish()

	hedge := time.NewTimer(c.hedgeDelay())
	defer hedge.Stop()
	for {
		select {
		case r := <-it.resCh:
			return r.body, r.remote, r.err
		case <-hedge.C:
			c.hedge(it)
			// Re-arm: a hedge that found no untried worker retries at the
			// next deadline; a placed hedge makes later fires no-ops.
			hedge.Reset(c.hedgeDelay())
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// runLocal computes an item on the coordinator itself, cancellable at
// interval boundaries, so admitted work completes without a fleet. No
// cache: the caller's DoBytes owns storage.
func (c *Coordinator) runLocal(it *item) {
	actx, ok := it.begin()
	if !ok {
		return
	}
	c.met.localRuns.Inc()
	run, err := it.req.Resolve()
	var body []byte
	if err == nil {
		body, _, err = run.Run(actx, nil, wire.RunHooks{})
	}
	it.deliver(result{body: body, err: err})
}

// pushLocked appends an item to the queue and wakes the slots. Callers
// hold c.mu.
func (c *Coordinator) pushLocked(it *item) {
	c.queue = append(c.queue, it)
	c.cond.Broadcast()
}

// untriedLocked reports whether some alive worker has not tried it.
// Callers hold c.mu.
func (c *Coordinator) untriedLocked(it *item) bool {
	for id := range c.workers {
		if !slices.Contains(it.tried, id) {
			return true
		}
	}
	return false
}

// hedge queues a running item once more, for a worker that has not
// tried it. At most one hedge per item; the first result delivered wins
// and cancels the other attempt.
func (c *Coordinator) hedge(it *item) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if it.hedged || len(it.tried) == 0 || !c.untriedLocked(it) {
		return // already hedged, not yet running, or nobody to hedge to
	}
	it.hedged = true
	c.pushLocked(it)
	c.met.hedges.Inc()
	first := it.tried[len(it.tried)-1]
	c.instant("hedge", it.key, first)
	c.log.Info("fabric: hedged dispatch", "key", it.key, "first", first)
}

// slot is one dispatch slot of one worker: take the oldest queued item
// the worker may run, POST it, deliver the result. Slots exit when their
// worker is declared dead or — once the queue is drained — when the
// coordinator closes.
func (c *Coordinator) slot(w *worker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for !w.gone {
		if it := c.takeLocked(w); it != nil {
			w.inflight++
			c.mu.Unlock()
			c.dispatch(w, it)
			c.mu.Lock()
			w.inflight--
			continue
		}
		if c.closed && len(c.queue) == 0 {
			return
		}
		c.cond.Wait()
	}
}

// takeLocked removes the oldest item w has not tried — or, once every
// alive worker has tried an item, that item too — and records w as
// having tried it. Callers hold c.mu.
func (c *Coordinator) takeLocked(w *worker) *item {
	for i, it := range c.queue {
		if slices.Contains(it.tried, w.id) && c.untriedLocked(it) {
			continue
		}
		c.queue = slices.Delete(c.queue, i, i+1)
		it.tried = append(it.tried, w.id)
		c.cond.Broadcast() // a slot waiting to exit may now see the queue empty
		return it
	}
	return nil
}

// dispatch POSTs one spec to one worker and routes the outcome: a win
// is delivered (cancelling rival attempts), a cancelled attempt is the
// hedge loser or a departed caller and dies quietly, a failure goes
// back through requeue.
func (c *Coordinator) dispatch(w *worker, it *item) {
	actx, ok := it.begin()
	if !ok {
		return
	}
	start := time.Now()
	body, retryable, err := c.post(actx, w, it)
	if err == nil {
		if it.deliver(result{body: body, remote: true}) {
			c.met.dispatches.With("ok").Inc()
			c.noteLatency(time.Since(start))
			c.span("dispatch", it.key, w.id, start)
		} else {
			// Lost the hedge race after completing: counted as
			// cancelled — the bytes are identical anyway.
			c.met.dispatches.With("cancelled").Inc()
		}
		return
	}
	if actx.Err() != nil {
		c.met.dispatches.With("cancelled").Inc()
		return
	}
	c.met.dispatches.With("error").Inc()
	c.log.Warn("fabric: dispatch failed", "worker", w.id, "key", it.key, "error", err)
	if !retryable {
		it.deliver(result{err: err})
		return
	}
	c.requeue(it)
}

// post issues one execute request. retryable distinguishes transport
// and worker-side (5xx) failures — worth another worker — from
// request-level rejections (4xx: the spec itself is bad everywhere).
func (c *Coordinator) post(ctx context.Context, w *worker, it *item) (body []byte, retryable bool, err error) {
	b, err := json.Marshal(wire.FabricExecute{Key: it.key, Run: it.req})
	if err != nil {
		return nil, false, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/v1/fabric/execute", bytes.NewReader(b))
	if err != nil {
		return nil, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, true, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, true, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode >= 500,
			fmt.Errorf("worker %s: status %d: %s", w.id, resp.StatusCode, strings.TrimSpace(string(out)))
	}
	return out, false, nil
}

// requeue puts a failed item back on the queue — or, with the fleet
// gone, computes it locally. Too many failures surface as the item's
// error.
func (c *Coordinator) requeue(it *item) {
	c.met.requeues.With("error").Inc()
	c.mu.Lock()
	it.fails++
	fails := it.fails
	if fails < maxAttempts && len(c.workers) > 0 {
		c.pushLocked(it)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	if fails >= maxAttempts {
		it.deliver(result{err: fmt.Errorf("fabric: spec %s failed %d dispatches", it.key, fails)})
		return
	}
	c.runLocal(it)
}

// janitor periodically reaps workers that stopped heartbeating.
func (c *Coordinator) janitor() {
	t := time.NewTicker(c.hb)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			c.reap(now)
		}
	}
}

// reap drops workers after deadBeats missed heartbeats; their in-flight
// dispatches fail over through the ordinary error path when the
// connection drops. With no workers left the queue is computed locally.
func (c *Coordinator) reap(now time.Time) {
	c.mu.Lock()
	for id, w := range c.workers {
		if now.Sub(w.lastBeat) > c.dead {
			w.gone = true
			delete(c.workers, id)
			c.log.Warn("fabric: worker presumed dead", "worker", id)
			c.cond.Broadcast()
		}
	}
	var local []*item
	if len(c.workers) == 0 {
		local, c.queue = c.queue, nil
	}
	c.mu.Unlock()
	for _, it := range local {
		go c.runLocal(it)
	}
}

// noteLatency folds one successful dispatch duration into the window
// behind the adaptive hedge deadline.
func (c *Coordinator) noteLatency(d time.Duration) {
	c.latMu.Lock()
	c.lats[c.latN%latWindow] = d.Seconds()
	c.latN++
	c.latMu.Unlock()
}

// hedgeDelay is the hedged-retry deadline: a fixed override, or 2× the
// p95 of recent dispatch latencies, clamped to [100ms, 30s]. Before
// enough samples exist it is a generous default — early duplicates are
// harmless (a finished item makes its queue copies inert).
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.hedgeAfter > 0 {
		return c.hedgeAfter
	}
	c.latMu.Lock()
	n := c.latN
	if n > latWindow {
		n = latWindow
	}
	if n < 4 {
		c.latMu.Unlock()
		return 2 * time.Second
	}
	s := append([]float64(nil), c.lats[:n]...)
	c.latMu.Unlock()
	sort.Float64s(s)
	p95 := s[(n*95+99)/100-1] // nearest rank
	d := time.Duration(2 * p95 * float64(time.Second))
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// span lands one wall-clock span in the flight recorder, if armed.
func (c *Coordinator) span(name, key, tier string, start time.Time) {
	if c.trc == nil {
		return
	}
	c.trc.Add(trace.Record{
		Kind: trace.KindSpan, Name: name, Key: key, Tier: tier,
		StartUS: start.UnixMicro(), DurUS: time.Since(start).Microseconds(),
	})
}

// instant lands one point event in the flight recorder, if armed.
func (c *Coordinator) instant(name, key, note string) {
	if c.trc == nil {
		return
	}
	c.trc.Add(trace.Record{
		Kind: trace.KindInstant, Name: name, Key: key, Note: note,
		StartUS: time.Now().UnixMicro(),
	})
}

// Close stops admitting work, lets the slots drain every queued
// dispatch, and waits for in-flight Execute calls to return — the
// graceful-shutdown drain. Callers shutting down a whole server close
// the job manager first (cancelling job contexts), which turns the
// drain into a prompt cancellation sweep.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
}
