// Package service is the job layer of the serving subsystem: a bounded
// queue of simulation jobs — single runs, batches over mcd.RunBatch,
// and whole table/figure/sweep experiments — executed by a fixed pool
// of job runners, with states, per-task progress, context cancellation
// and result-store integration. cmd/mcdserve exposes it over HTTP via
// NewHandler; the bounded queue means a flood of requests degrades to
// queuing (then ErrQueueFull) rather than unbounded memory growth.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcd"
	"mcd/internal/journal"
	"mcd/internal/metrics"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/trace"
	"mcd/internal/wire"
)

// State is a job's lifecycle position.
type State string

// Job states. A cancelled job reports Failed with a context error.
const (
	Queued  State = "queued"
	Running State = "running"
	Done    State = "done"
	Failed  State = "failed"
)

// ErrQueueFull reports that the job queue is at its configured depth;
// the client should retry later (the HTTP layer maps it to 429).
var ErrQueueFull = errors.New("service: job queue full")

// ErrQuota reports that one client's share of the queue is exhausted
// while the queue itself still has room: the greedy client gets its own
// 429s (with a Retry-After) instead of starving everyone else. The HTTP
// layer distinguishes it from ErrQueueFull in the error body so clients
// can back off correctly.
var ErrQuota = errors.New("service: per-client quota exhausted")

// ErrFleet reports that the distributed run fabric behind this manager
// is saturated: every worker's queue is full past the backpressure
// threshold, so admitting more work would only grow latency. The HTTP
// layer maps it to 429 with reason "fleet".
var ErrFleet = errors.New("service: worker fleet saturated")

// ErrNotFound reports an unknown job ID.
var ErrNotFound = errors.New("service: no such job")

// DispatchFunc executes one cache-missing, content-addressed run
// somewhere else — the fabric coordinator's Execute, in production —
// and returns the canonical result bytes and whether they were a cache
// hit. The service calls it for every spec key it would otherwise
// simulate locally; byte-identity of dispatched results is the
// fabric's contract.
type DispatchFunc func(ctx context.Context, key string, req wire.RunRequest) ([]byte, bool, error)

// retainJobs bounds the job table: beyond it the oldest *terminal* jobs
// (and their result bodies) are dropped, so a long-lived server under a
// flood of requests holds bounded memory. Queued and running jobs are
// never dropped.
const retainJobs = 512

// maxBatchRuns bounds one batch job's size: a larger grid belongs in an
// experiment (which streams cells through the pool) or several batches.
const maxBatchRuns = 1024

// Options configures a Manager.
type Options struct {
	// Runners is the number of jobs executing concurrently (default 1:
	// one experiment at a time, each internally parallel).
	Runners int
	// QueueDepth bounds jobs waiting to run (default 64).
	QueueDepth int
	// Workers bounds the simulations running concurrently inside one
	// job; zero or negative means GOMAXPROCS.
	Workers int
	// Cache, if non-nil, backs every run with the content-addressed
	// result store.
	Cache *resultcache.Cache
	// Journal, if non-nil, persists every submission and state
	// transition; jobs the journal reports as still live (queued or
	// running when the previous process died) are re-queued under their
	// original IDs before the manager accepts new work. Rerunning them is
	// safe by the determinism contract — identical requests produce
	// byte-identical results, and completed cells hit the result cache.
	Journal *journal.Journal
	// ClientQuota bounds how many queued jobs one client (the X-Client
	// header or remote address) may hold at once; 0 or negative disables
	// the quota. Jobs submitted with an empty client ID (direct library
	// use) are exempt.
	ClientQuota int
	// Metrics receives the manager's instruments; nil creates a private
	// registry (reachable via Manager.Metrics, served at GET /metrics).
	Metrics *metrics.Registry
	// Trace, if non-nil, enables the flight recorder: job lifecycle
	// spans and per-interval controller decision records land in this
	// process-wide ring (GET /debug/trace) and in a bounded per-job
	// trace (GET /v1/jobs/{id}/trace, Chrome trace-event JSON). Nil —
	// the default — disables tracing entirely: no records, no
	// timestamps, no allocations on any path.
	Trace *trace.Ring
	// Logger receives structured job lifecycle logs (submissions,
	// starts, terminal states, journal degradation) with job-ID, client
	// and spec-key attributes; nil discards them.
	Logger *slog.Logger
	// Dispatch, if non-nil, routes every addressable run (a spec whose
	// content key derives) to the distributed fabric instead of the
	// local simulator: single runs, batch cells and experiment grid
	// cells all flow through it. Stream jobs and opaque-controller runs
	// always execute locally. Nil — the default — keeps the manager a
	// single-process server.
	Dispatch DispatchFunc
	// Gate, if non-nil, is consulted before every submission; a non-nil
	// error rejects it (mapped to 429). The coordinator wires fleet
	// saturation here so fleet-wide backpressure reaches clients as
	// ErrFleet before a job ever occupies a queue slot.
	Gate func() error
}

// Manager owns the job table, the bounded queue and the runner pool.
// The queue is a slice guarded by mu/cond rather than a channel, so
// cancelling a queued job can remove it immediately — a departed
// client's job frees its slot instead of occupying the queue until a
// runner drains it.
type Manager struct {
	opts   Options
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	met *managerMetrics
	log *slog.Logger

	mu      sync.Mutex
	cond    *sync.Cond // signalled on pending growth and on close
	pending []*Job
	closed  bool
	jobs    map[string]*Job
	// retain is the job-table bound pruneLocked keeps: retainJobs,
	// lowered only by tests.
	retain int
	// terminal lists finished jobs still in the table, completion order
	// — the pruner's eviction queue, so pruning is O(evicted) instead
	// of a full-table scan per submission.
	terminal []string
	seq      int
	// jnl is the persistent job journal (nil: no persistence). It lives
	// behind mu so Kill can detach it atomically — a simulated crash
	// must stop journaling before the cancellation fallout writes
	// terminal states the real crash would never have written.
	jnl *journal.Journal
	// latEWMA tracks recent job latency (seconds, exponentially
	// weighted) — the basis of Retry-After on 429 responses.
	latEWMA float64
}

// New starts a manager and its runner pool. A journal in the options is
// replayed first: jobs that were queued or running when the previous
// process died are re-queued under their original IDs before the
// runners start, so a crashed server resumes exactly where it stopped.
func New(opts Options) *Manager {
	if opts.Runners <= 0 {
		opts.Runners = 1
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:   opts,
		ctx:    ctx,
		cancel: cancel,
		jobs:   make(map[string]*Job),
		retain: retainJobs,
		jnl:    opts.Journal,
	}
	m.cond = sync.NewCond(&m.mu)
	m.met = newManagerMetrics(m, opts.Metrics)
	m.log = opts.Logger
	if m.log == nil {
		m.log = slog.New(slog.DiscardHandler)
	}
	// IDs continue past every ID the journal ever held, so a client
	// still holding a finished job's ID never reads a new job under it.
	if n, err := strconv.Atoi(strings.TrimPrefix(opts.Journal.LastID(), "j")); err == nil {
		m.seq = n
	}
	replayed := 0
	for _, sub := range opts.Journal.Pending() {
		if m.restore(sub) {
			replayed++
		}
	}
	m.met.replayed.Set(float64(replayed))
	if replayed > 0 {
		m.log.Info("journal replay re-queued interrupted jobs", "jobs", replayed)
	}
	for i := 0; i < opts.Runners; i++ {
		m.wg.Add(1)
		go m.runLoop(i)
	}
	return m
}

// Metrics returns the manager's instrument registry (GET /metrics).
func (m *Manager) Metrics() *metrics.Registry { return m.met.reg }

// Cache returns the manager's result store (may be nil).
func (m *Manager) Cache() *resultcache.Cache { return m.opts.Cache }

// Close cancels every job, waits for the runners to drain, and fails
// whatever never got to run — so watchers (NDJSON streams, synchronous
// waiters) always observe a terminal state and shutdown never hangs on
// a queued job.
func (m *Manager) Close() {
	m.cancel()
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	for _, j := range m.jobs {
		j.cancel()
	}
	m.mu.Unlock()
	m.wg.Wait()
	m.mu.Lock()
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	for _, j := range pending {
		j.fail(m.ctx.Err())
	}
}

// Kill stops the manager as a crash would: the journal is detached and
// its handle closed *before* anything is cancelled, so the shutdown
// fallout writes no terminal states and the on-disk log is left exactly
// as a SIGKILL mid-run would leave it — queued and running jobs still
// live, ready for the next Manager over the same path to replay. The
// in-process resources are still released (runners drained, contexts
// cancelled), so tests can Kill without leaking goroutines.
func (m *Manager) Kill() {
	m.mu.Lock()
	jnl := m.jnl
	m.jnl = nil
	m.mu.Unlock()
	jnl.Close()
	m.Close()
}

func (m *Manager) runLoop(runner int) {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.closed {
			m.cond.Wait()
		}
		if m.closed {
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		m.mu.Unlock()
		m.execute(runner, j)
	}
}

// execute runs one job, translating panics (including the harness's
// re-panicked task failures and context cancellations) into a Failed
// state so a bad run can never kill the server.
func (m *Manager) execute(runner int, j *Job) {
	// Every exit leaves the job terminal: release its context (a
	// cancelCtx stays registered on the manager's root context until
	// cancelled — a leak over a long-lived server otherwise) and let
	// the pruner see it.
	defer func() {
		j.cancel()
		m.noteTerminal(j.id)
	}()
	if err := j.ctx.Err(); err != nil {
		m.failJob(j, err)
		return
	}
	var created, started time.Time
	j.update(func(j *Job) {
		j.state = Running
		j.started = time.Now()
		created, started = j.created, j.started
	})
	m.met.jobDuration.With("queue").Observe(started.Sub(created).Seconds())
	if m.tracing() {
		m.addTrace(j, spanRec("queue", j.key, "", created, started))
	}
	m.log.Debug("job started", "job", j.id, "kind", j.kind, "runner", runner,
		"queue_wait", started.Sub(created))
	m.journalState(j, Running)
	label := strconv.Itoa(runner)
	m.met.runnerBusy.With(label).Set(1)
	instrBefore := sim.SimulatedInstructions()
	start := time.Now()
	var (
		body []byte
		err  error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("job panicked: %v", r)
			}
		}()
		body, err = j.run(j.ctx, j)
	}()
	dur := time.Since(start)
	m.met.runnerBusy.With(label).Set(0)
	if secs := dur.Seconds(); secs > 0 {
		// Approximate attribution: the instruction counter is
		// process-wide, so with overlapping runners this over-counts —
		// exact whenever runners don't overlap (see DESIGN.md,
		// "Operations").
		m.met.runnerMIPS.With(label).Set(float64(sim.SimulatedInstructions()-instrBefore) / secs / 1e6)
	}
	m.noteLatency(dur)
	m.met.jobDuration.With("run").Observe(dur.Seconds())
	if m.tracing() {
		m.addTrace(j, spanRec("execute", j.key, "", start, start.Add(dur)))
	}
	if err == nil {
		err = j.ctx.Err() // a cancelled job that limped to a result still failed
	}
	if err != nil {
		m.failJob(j, err)
		return
	}
	// Persist before publishing: publishing Done wakes WaitResult, and a
	// job a client has seen finish must not come back queued after a
	// crash.
	m.journalState(j, Done)
	var finished time.Time
	var hit bool
	j.update(func(j *Job) {
		j.state = Done
		j.result = body
		j.finished = time.Now()
		finished, hit = j.finished, j.hit
	})
	if m.tracing() {
		m.addTrace(j, instantRec("done", finished))
	}
	m.log.Info("job done", "job", j.id, "kind", j.kind, "dur", dur,
		"cache_hit", hit, "spec_key", j.key)
	m.met.completed.With(string(Done)).Inc()
}

// failJob journals a job's Failed transition, then publishes it and
// counts it; as for Done, persisting comes first.
func (m *Manager) failJob(j *Job, err error) {
	m.journalState(j, Failed)
	j.fail(err)
	if m.tracing() {
		rec := instantRec("failed", time.Now())
		rec.Note = err.Error()
		m.addTrace(j, rec)
	}
	m.log.Warn("job failed", "job", j.id, "kind", j.kind, "client", j.client, "error", err)
	m.met.completed.With(string(Failed)).Inc()
}

// journalState persists one state transition for a journaled job. While
// the manager is shutting down nothing is written: a job failed by
// shutdown cancellation is not failed in the journal's eyes — the next
// process replays and resumes it, which is exactly the crash-safety
// contract (and makes graceful restarts resume too).
func (m *Manager) journalState(j *Job, s State) {
	if j.sub == nil || m.ctx.Err() != nil {
		return
	}
	m.mu.Lock()
	jnl := m.jnl
	m.mu.Unlock()
	if jnl == nil {
		return
	}
	if err := jnl.State(j.id, string(s)); err != nil {
		m.log.Error("journal state append failed; persistence degraded",
			"job", j.id, "state", string(s), "error", err)
		m.met.journalErrors.Inc()
	}
}

// noteLatency folds one executed job's duration into the latency EWMA.
func (m *Manager) noteLatency(d time.Duration) {
	m.mu.Lock()
	if m.latEWMA == 0 {
		m.latEWMA = d.Seconds()
	} else {
		m.latEWMA = 0.7*m.latEWMA + 0.3*d.Seconds()
	}
	m.mu.Unlock()
}

// RetryAfter estimates how long a rejected client should wait before
// retrying: the current queue drained at the recent per-job latency
// across the runner pool, floored at one second (whole seconds, as the
// Retry-After header wants).
func (m *Manager) RetryAfter() time.Duration {
	m.mu.Lock()
	depth := len(m.pending)
	lat := m.latEWMA
	m.mu.Unlock()
	if lat == 0 {
		lat = 1
	}
	secs := lat * float64(depth+1) / float64(m.opts.Runners)
	if secs < 1 {
		secs = 1
	}
	return time.Duration(math.Ceil(secs)) * time.Second
}

// queue gives a job built by jobFor or runJob (its kind, total, key
// and run closure) its queue identity and state; its context is a child
// of the manager's.
func (m *Manager) queue(j *Job, id, client string, sub *journal.Submit) {
	j.id, j.client, j.sub = id, client, sub
	j.state, j.created, j.watch = Queued, time.Now(), make(chan struct{})
	j.ctx, j.cancel = context.WithCancel(m.ctx)
	if m.tracing() {
		j.trc = trace.NewRing(maxJobTraceRecords)
	}
}

// admit registers and enqueues a job. A non-empty client is charged
// against the per-client quota; a non-nil sub is persisted to the
// journal (its ID is filled in here) so the job survives a crash.
func (m *Manager) admit(client string, sub *journal.Submit, j *Job) (*Job, error) {
	// The admission gate runs before any state is taken: fleet-wide
	// backpressure (the fabric's saturation signal) rejects here, so a
	// saturated fleet sheds load at the front door instead of queueing
	// work it cannot start.
	if m.opts.Gate != nil {
		if err := m.opts.Gate(); err != nil {
			m.met.rejected.With("fleet").Inc()
			return nil, err
		}
	}
	m.mu.Lock()
	if m.closed || len(m.pending) >= m.opts.QueueDepth {
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return nil, errors.New("service: manager closed")
		}
		m.met.rejected.With("queue").Inc()
		return nil, ErrQueueFull
	}
	if client != "" && m.opts.ClientQuota > 0 {
		queued := 0
		for _, q := range m.pending {
			if q.client == client {
				queued++
			}
		}
		if queued >= m.opts.ClientQuota {
			m.mu.Unlock()
			m.met.rejected.With("quota").Inc()
			return nil, fmt.Errorf("%w: client %q already holds %d queued jobs", ErrQuota, client, queued)
		}
	}
	m.seq++
	m.queue(j, fmt.Sprintf("j%06d", m.seq), client, sub)
	if sub != nil {
		sub.ID = j.id
		sub.Client = client
	}
	m.jobs[j.id] = j
	m.pending = append(m.pending, j)
	m.pruneLocked()
	m.cond.Signal()
	jnl := m.jnl
	m.mu.Unlock()
	if m.tracing() {
		m.addTrace(j, instantRec("submit", j.created))
	}
	m.log.Info("job submitted", "job", j.id, "kind", j.kind, "client", client)
	m.met.submitted.With(kindLabel(j.kind)).Inc()
	// The fsync happens outside the queue lock: a slow disk delays this
	// submitter's acknowledgement, never the runner pool. A failed
	// append degrades persistence (counted, job still runs) rather than
	// failing the submission.
	if sub != nil && jnl != nil {
		if err := jnl.Submit(*sub); err != nil {
			m.log.Error("journal append failed; persistence degraded", "job", j.id, "error", err)
			m.met.journalErrors.Inc()
		}
	}
	return j, nil
}

// kindLabel collapses "experiment:<name>" into one metric label value
// per job family, keeping the submitted-counter cardinality bounded.
func kindLabel(kind string) string {
	if k, _, ok := strings.Cut(kind, ":"); ok {
		return k
	}
	return kind
}

// jobFor resolves a journaled submission into an unqueued job: its
// kind, total, key and run closure. It is the trust boundary of journal
// replay and of the batch and experiment submissions, so a replayed job
// is — by construction — the same computation its original submission
// described.
func (m *Manager) jobFor(sub *journal.Submit) (*Job, error) {
	switch sub.Kind {
	case journal.KindRun, journal.KindStream:
		if sub.Run == nil {
			return nil, fmt.Errorf("service: %s submission without a request", sub.Kind)
		}
		r, err := sub.Run.Resolve()
		if err != nil {
			return nil, err
		}
		return m.runJob(sub.Kind, r), nil
	case journal.KindBatch:
		if len(sub.Runs) == 0 {
			return nil, errors.New("service: empty batch")
		}
		if len(sub.Runs) > maxBatchRuns {
			return nil, fmt.Errorf("service: batch of %d runs exceeds the %d-run bound", len(sub.Runs), maxBatchRuns)
		}
		rs := make([]wire.Resolved, len(sub.Runs))
		for i, r := range sub.Runs {
			var err error
			if rs[i], err = r.Resolve(); err != nil {
				return nil, fmt.Errorf("run %d: %w", i, err)
			}
		}
		return &Job{kind: "batch", total: len(rs), run: m.runBatch(rs)}, nil
	case journal.KindExperiment:
		if sub.Experiment == nil {
			return nil, errors.New("service: experiment submission without a request")
		}
		if err := sub.Experiment.Validate(); err != nil {
			return nil, err
		}
		return &Job{kind: "experiment:" + sub.Experiment.Name, run: m.runExperiment(*sub.Experiment)}, nil
	}
	return nil, fmt.Errorf("service: unknown journaled job kind %q", sub.Kind)
}

// restore re-queues one journaled job under its original ID (replay
// yields unique, non-empty IDs), reporting whether it was re-queued. A
// submission that no longer validates (the registry changed across the
// restart) lands in the table as Failed — visible to its watchers,
// dropped at the next compaction — instead of blocking startup.
func (m *Manager) restore(sub journal.Submit) bool {
	j, err := m.jobFor(&sub)
	if err != nil {
		j = &Job{kind: sub.Kind}
	}
	m.queue(j, sub.ID, sub.Client, &sub)
	m.mu.Lock()
	m.jobs[j.id] = j
	if err == nil {
		m.pending = append(m.pending, j)
	}
	m.mu.Unlock()
	if err != nil {
		j.cancel()
		m.failJob(j, fmt.Errorf("journal replay: %w", err))
		m.noteTerminal(j.id)
	}
	return err == nil
}

// submitAs resolves and enqueues one journaled submission on behalf of
// client.
func (m *Manager) submitAs(client string, sub *journal.Submit) (*Job, error) {
	j, err := m.jobFor(sub)
	if err != nil {
		return nil, err
	}
	return m.admit(client, sub, j)
}

// runJob builds an unqueued single-run job: kind run, or kind stream,
// whose measured control intervals are published on the job as they
// are produced.
func (m *Manager) runJob(kind string, r wire.Resolved) *Job {
	return &Job{kind: kind, total: 1, key: r.Key, run: func(ctx context.Context, j *Job) ([]byte, error) {
		var emit func(stats.Interval)
		if kind == journal.KindStream {
			emit = j.pushInterval
		}
		j.update(func(j *Job) { j.task = taskName(r) })
		body, hit, dispatched, err := m.runOne(ctx, j, r, emit)
		if err != nil {
			return nil, err
		}
		j.update(func(j *Job) { j.done, j.hit, j.dispatched = 1, hit, dispatched })
		return body, nil
	}}
}

// runOne runs one resolved request of job j: the one run path of single,
// streamed and batched runs. It goes to the fabric when a dispatch hook
// is set, the run has a content address and no emitter wants its
// intervals (streams stay local); otherwise it runs here through the
// manager's store under the job's hooks. Run consults ctx every control
// interval, so cancellation — DELETE, a departed client, shutdown —
// aborts the simulation at the next interval boundary instead of after
// the full window.
func (m *Manager) runOne(ctx context.Context, j *Job, r wire.Resolved, emit func(stats.Interval)) (body []byte, hit, dispatched bool, err error) {
	if err := ctx.Err(); err != nil {
		return nil, false, false, err
	}
	if m.opts.Dispatch != nil && r.Key != "" && emit == nil {
		body, hit, err = m.opts.Dispatch(ctx, r.Key, r.Request())
		return body, hit, true, err
	}
	body, hit, err = r.Run(ctx, m.opts.Cache, m.runHooks(j, r, emit))
	return body, hit, false, err
}

// taskName labels one run in progress snapshots: benchmark/controller.
func taskName(r wire.Resolved) string {
	req := r.Request()
	return req.Benchmark + "/" + req.ControllerName()
}

// SubmitRunAs enqueues one resolved run on behalf of client: the
// submission is charged against the per-client quota ("" is exempt) and
// journaled for crash replay. See runOne for its execution contract.
func (m *Manager) SubmitRunAs(client string, r wire.Resolved) (*Job, error) {
	req := r.Request()
	return m.admit(client, &journal.Submit{Kind: journal.KindRun, Run: &req}, m.runJob(journal.KindRun, r))
}

// SubmitStreamAs is SubmitRunAs for a streamed run, the backing of the
// service's "stream" run mode: watchers drain its intervals with
// IntervalsSince, interleaved with the usual progress snapshots.
// Cancellation closes the stepped session at the next interval boundary;
// the partial result is discarded and the job reports Failed with the
// context error. A completed streamed run stores bytes identical to a
// one-shot run of the same request, so the follow-up identical request
// is a cache hit.
func (m *Manager) SubmitStreamAs(client string, r wire.Resolved) (*Job, error) {
	req := r.Request()
	return m.admit(client, &journal.Submit{Kind: journal.KindStream, Run: &req}, m.runJob(journal.KindStream, r))
}

// runBatch is the run closure of a batch job: the runs fan out through
// mcd.RunBatch on the manager's worker bound, each through runOne; the
// result body is a JSON array of canonical result encodings in
// submission order.
func (m *Manager) runBatch(rs []wire.Resolved) func(ctx context.Context, j *Job) ([]byte, error) {
	return func(ctx context.Context, j *Job) ([]byte, error) {
		// Each run keeps its canonical body (indexes are distinct, so
		// the slice needs no lock); the assembled array reuses those
		// bytes instead of a decode/re-encode round trip per run.
		bodies := make([][]byte, len(rs))
		batch := make([]mcd.RunRequest, len(rs))
		var anyDispatched atomic.Bool
		for i, r := range rs {
			batch[i] = mcd.RunRequest{
				Name: taskName(r),
				Do: func(tctx context.Context) (mcd.Result, error) {
					b, _, dispatched, err := m.runOne(tctx, j, r, nil)
					if dispatched {
						anyDispatched.Store(true)
					}
					bodies[i] = b
					return mcd.Result{}, err
				},
			}
		}
		outs, err := mcd.RunBatch(ctx, batch, mcd.BatchOptions{
			Workers: m.opts.Workers,
			Progress: func(done, total int, name string) {
				j.update(func(j *Job) { j.done, j.total, j.task = done, total, name })
			},
		})
		if err != nil {
			return nil, err
		}
		results := make([]json.RawMessage, len(outs))
		for i, o := range outs {
			if o.Err != nil {
				return nil, fmt.Errorf("%s: %w", o.Name, o.Err)
			}
			b := bodies[i]
			results[i] = b[:len(b)-1] // strip canonical trailing newline inside the array
		}
		if anyDispatched.Load() {
			j.update(func(j *Job) { j.dispatched = true })
		}
		body, err := json.Marshal(results)
		if err != nil {
			return nil, err
		}
		return append(body, '\n'), nil
	}
}

// SubmitBatchAs enqueues a set of runs (see runBatch) on behalf of
// client, for quota accounting and crash-replayable journaling.
func (m *Manager) SubmitBatchAs(client string, reqs []wire.RunRequest) (*Job, error) {
	return m.submitAs(client, &journal.Submit{Kind: journal.KindBatch, Runs: reqs})
}

// runExperiment is the run closure of a whole table/figure/sweep; the
// result body is the canonical wire.ExperimentResult encoding.
func (m *Manager) runExperiment(e wire.ExperimentRequest) func(ctx context.Context, j *Job) ([]byte, error) {
	return func(ctx context.Context, j *Job) ([]byte, error) {
		opts := e.Options()
		opts.Workers = m.opts.Workers
		opts.Cache = m.opts.Cache
		opts.Context = ctx
		opts.Progress = func(done, total int, name string) {
			j.update(func(j *Job) { j.done, j.total, j.task = done, total, name })
		}
		if dispatch := m.opts.Dispatch; dispatch != nil {
			// Every addressable grid cell of the experiment flows to the
			// fleet; the adapter proves the cell's content address equals
			// the wire request's before any bytes cross a process.
			opts.Exec = wire.ExecAdapter(func(ctx context.Context, key string, req wire.RunRequest) ([]byte, error) {
				b, _, err := dispatch(ctx, key, req)
				return b, err
			})
			j.update(func(j *Job) { j.dispatched = true })
		}
		res, err := wire.RunExperimentRequest(opts, e)
		if err != nil {
			return nil, err
		}
		return wire.EncodeExperiment(res)
	}
}

// SubmitExperimentAs enqueues a whole experiment (see runExperiment) on
// behalf of client, for quota accounting and crash-replayable
// journaling.
func (m *Manager) SubmitExperimentAs(client string, e wire.ExperimentRequest) (*Job, error) {
	return m.submitAs(client, &journal.Submit{Kind: journal.KindExperiment, Experiment: &e})
}

// maxTerminalIntervalLogs is how many finished jobs keep their interval
// logs. A terminal stream job's log exists only for watchers still
// draining its final frames; beyond the most recent few, the records
// are dead weight (up to ~maxJobIntervals × the record size per job,
// across up to retainJobs jobs), so older logs are released and a late
// watcher sees an explicit gap frame instead.
const maxTerminalIntervalLogs = 8

// noteTerminal records a finished job for the pruner, releases the
// interval log of the job that just aged past the retained window, and
// — when enough terminal history has accumulated — compacts the journal
// down to the still-live submissions. The live set is gathered under
// the lock; the rewrite (disk I/O) happens outside it.
func (m *Manager) noteTerminal(id string) {
	m.mu.Lock()
	m.terminal = append(m.terminal, id)
	if idx := len(m.terminal) - 1 - maxTerminalIntervalLogs; idx >= 0 {
		if j, ok := m.jobs[m.terminal[idx]]; ok {
			j.dropIntervals()
			// The trace buffer ages out on the same window: past the
			// recent terminal jobs it is dead weight the same way the
			// interval log is (see maxTerminalIntervalLogs).
			j.dropTrace()
		}
	}
	m.pruneLocked()
	jnl := m.jnl
	var live []journal.Submit
	compact := jnl.ShouldCompact()
	if compact {
		live = m.liveSubmitsLocked()
	}
	m.mu.Unlock()
	if compact {
		if err := jnl.Compact(live); err != nil {
			m.log.Error("journal compaction failed; persistence degraded", "error", err)
			m.met.journalErrors.Inc()
		}
	}
}

// liveSubmitsLocked snapshots the journaled submissions of every job
// still queued or running, in submission order — the survivor set a
// journal compaction keeps. Callers hold m.mu.
func (m *Manager) liveSubmitsLocked() []journal.Submit {
	var live []journal.Submit
	for _, j := range m.jobs {
		if j.sub == nil {
			continue
		}
		j.mu.Lock()
		s := j.state
		j.mu.Unlock()
		if s == Queued || s == Running {
			live = append(live, *j.sub)
		}
	}
	sort.Slice(live, func(a, b int) bool { return journal.IDLess(live[a].ID, live[b].ID) })
	return live
}

// pruneLocked drops the oldest-finished jobs (and their result bodies)
// once the table exceeds m.retain, bounding a long-lived server's
// memory. Queued and running jobs are never dropped. Callers hold m.mu.
func (m *Manager) pruneLocked() {
	for len(m.jobs) > m.retain && len(m.terminal) > 0 {
		delete(m.jobs, m.terminal[0])
		m.terminal = m.terminal[1:]
	}
}

// Job returns a job by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel cancels a job: a still-queued job is removed from the queue —
// freeing its slot — and fails immediately; a running experiment's
// context aborts it between simulations.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return false
	}
	dequeued := false
	for i, q := range m.pending {
		if q == j {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			dequeued = true
			break
		}
	}
	m.mu.Unlock()
	j.cancel()
	m.met.cancelled.Inc()
	if dequeued {
		// An explicit user cancel is terminal in the journal too: unlike a
		// shutdown cancellation, the job must not resurrect at the next
		// restart.
		m.failJob(j, context.Canceled)
		m.noteTerminal(j.id)
	}
	return true
}

// Jobs snapshots every known job, newest first.
func (m *Manager) Jobs() []Snapshot {
	m.mu.Lock()
	js := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	snaps := make([]Snapshot, len(js))
	for i, j := range js {
		snaps[i] = j.Snapshot()
	}
	sort.Slice(snaps, func(a, b int) bool { return journal.IDLess(snaps[b].ID, snaps[a].ID) }) // newest first
	return snaps
}

// Job is one unit of queued work. All fields are guarded by mu and read
// through Snapshot.
type Job struct {
	id     string
	kind   string
	key    string          // spec key of a single-run job, set at submission; "" otherwise
	client string          // quota identity; empty for direct library use
	sub    *journal.Submit // journaled submission; nil for unjournaled jobs

	ctx    context.Context
	cancel context.CancelFunc
	run    func(ctx context.Context, j *Job) ([]byte, error)

	mu         sync.Mutex
	state      State
	done       int
	total      int
	task       string
	errMsg     string
	result     []byte
	hit        bool
	dispatched bool
	created    time.Time
	started    time.Time
	finished   time.Time
	watch      chan struct{}

	// Interval log of a stream job: ivs[0] is interval number ivBase of
	// the run (the log is bounded; a watcher that lags more than
	// maxJobIntervals skips the overwritten records).
	ivBase int
	ivs    []stats.Interval

	trc *trace.Ring // bounded flight-recorder trace; nil untraced or aged out
}

// maxJobIntervals bounds one job's retained interval log, so a streamed
// run over an enormous window cannot grow server memory without bound:
// live watchers drain the log far faster than simulation fills it, and
// a lagging watcher observes a gap rather than the server an OOM.
const maxJobIntervals = 8192

// pushInterval appends one measured interval record and wakes watchers.
func (j *Job) pushInterval(iv stats.Interval) {
	j.update(func(j *Job) {
		j.ivs = append(j.ivs, iv)
		if drop := len(j.ivs) - maxJobIntervals; drop > 0 {
			j.ivBase += drop
			j.ivs = j.ivs[:copy(j.ivs, j.ivs[drop:])]
		}
	})
}

// dropIntervals releases the job's interval log; remaining watchers
// observe the dropped records as an explicit gap.
func (j *Job) dropIntervals() {
	j.mu.Lock()
	j.ivBase += len(j.ivs)
	j.ivs = nil
	j.mu.Unlock()
}

// IntervalsSince returns copies of the interval records produced at or
// after absolute interval index n, the next index to resume from, and
// how many records between n and the first returned one were already
// overwritten (a consumer lagging past the log bound — report it, never
// drop it silently). Pair it with Watch/Snapshot exactly like progress
// polling: take the watch channel, read the snapshot, then drain
// intervals.
func (j *Job) IntervalsSince(n int) (ivs []stats.Interval, next, dropped int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < j.ivBase {
		dropped = j.ivBase - n
		n = j.ivBase
	}
	end := j.ivBase + len(j.ivs)
	if n >= end {
		return nil, end, dropped
	}
	return append([]stats.Interval(nil), j.ivs[n-j.ivBase:]...), end, dropped
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// update applies fn under the job lock and wakes every watcher.
func (j *Job) update(fn func(*Job)) {
	j.mu.Lock()
	fn(j)
	close(j.watch)
	j.watch = make(chan struct{})
	j.mu.Unlock()
}

func (j *Job) fail(err error) {
	j.update(func(j *Job) {
		j.state = Failed
		j.errMsg = err.Error()
		j.finished = time.Now()
	})
}

// Watch returns a channel closed at the next state/progress change;
// callers grab it before Snapshot so no update is missed.
func (j *Job) Watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.watch
}

// Result returns the finished job's body.
func (j *Job) Result() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != Done {
		return nil, false
	}
	return j.result, true
}

// Snapshot is the JSON shape of a job's observable state.
type Snapshot struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total,omitempty"`
	Task  string `json:"task,omitempty"`
	Error string `json:"error,omitempty"`
	// CacheHit reports that a single-run job was served from the result
	// store.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Dispatched reports that some or all of the job's simulations ran
	// on the distributed fabric rather than in this process.
	Dispatched bool      `json:"dispatched,omitempty"`
	Created    time.Time `json:"created"`
	Started    time.Time `json:"started,omitzero"`
	Finished   time.Time `json:"finished,omitzero"`
}

// Terminal reports whether the job has stopped moving.
func (s Snapshot) Terminal() bool { return s.State == Done || s.State == Failed }

// Snapshot copies the job's observable state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Snapshot{
		ID: j.id, Kind: j.kind, State: j.state,
		Done: j.done, Total: j.total, Task: j.task,
		Error: j.errMsg, CacheHit: j.hit, Dispatched: j.dispatched,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
}

// WaitResult blocks until the job finishes (or ctx is cancelled) and
// returns the result body and final snapshot.
func (j *Job) WaitResult(ctx context.Context) ([]byte, Snapshot, error) {
	for {
		ch := j.Watch()
		snap := j.Snapshot()
		if snap.Terminal() {
			if snap.State == Failed {
				return nil, snap, errors.New(snap.Error)
			}
			body, _ := j.Result()
			return body, snap, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return nil, snap, ctx.Err()
		}
	}
}
