package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcd/internal/journal"
	"mcd/internal/resultcache"
	"mcd/internal/stats"
	"mcd/internal/wire"
)

// enqueue admits a hand-made job closure, as the queue tests need.
func (m *Manager) enqueue(client string, sub *journal.Submit, kind string, total int, run func(ctx context.Context, j *job) ([]byte, error)) (*job, error) {
	return m.admit(client, sub, &job{kind: kind, total: total, run: run})
}

// submitFunc enqueues an anonymous, unjournaled job closure.
func (m *Manager) submitFunc(kind string, total int, run func(ctx context.Context, j *job) ([]byte, error)) (*job, error) {
	return m.enqueue("", nil, kind, total, run)
}

// submitRun enqueues one resolved run as the run handler does.
func (m *Manager) submitRun(client string, r wire.Resolved) (*job, error) {
	req := r.Request()
	return m.submit(client, journal.Submit{Kind: journal.KindRun, Run: &req}, m.runJob(journal.KindRun, r))
}

// resolve resolves a request a test knows to be valid.
func resolve(t *testing.T, r wire.RunRequest) wire.Resolved {
	t.Helper()
	v, err := r.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// blockingJob submits a job that parks until release is closed,
// pinning the single runner so queue behaviour is deterministic.
func blockingJob(t *testing.T, m *Manager, release <-chan struct{}) *job {
	t.Helper()
	j, err := m.submitFunc("block", 1, func(ctx context.Context, j *job) ([]byte, error) {
		select {
		case <-release:
			return []byte("done\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func waitState(t *testing.T, j *job, want State) Snapshot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ch := j.watch()
		snap := j.snapshot()
		if snap.State == want {
			return snap
		}
		if snap.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job %s in state %s (err %q), want %s", snap.ID, snap.State, snap.Error, want)
		}
		select {
		case <-ch:
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// TestQueueDegradesThenRejects pins the overload contract: with one
// runner and depth N, N jobs queue and job N+1 is refused with
// errQueueFull instead of growing memory without bound.
func TestQueueDegradesThenRejects(t *testing.T) {
	m := New(Options{Runners: 1, QueueDepth: 2})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)

	running := blockingJob(t, m, release)
	waitState(t, running, Running)

	q1 := blockingJob(t, m, release)
	q2 := blockingJob(t, m, release)
	if s := q1.snapshot().State; s != Queued {
		t.Fatalf("q1 state %s, want queued", s)
	}

	if _, err := m.submitFunc("block", 1, func(ctx context.Context, j *job) ([]byte, error) {
		return nil, nil
	}); !errors.Is(err, errQueueFull) {
		t.Fatalf("overflow submit: err = %v, want errQueueFull", err)
	}

	// Cancelling a queued job frees its slot immediately — the next
	// submission fits while the runner is still pinned.
	if !m.cancelJob(q2.id) {
		t.Fatal("cancel queued job returned false")
	}
	waitState(t, q2, Failed)
	if _, err := m.submitFunc("block", 1, func(ctx context.Context, j *job) ([]byte, error) {
		return nil, nil
	}); err != nil {
		t.Fatalf("submit after cancelling a queued job: %v", err)
	}
}

// TestCancelQueuedJob cancels a job before it runs: it must fail with
// the context error without ever executing.
func TestCancelQueuedJob(t *testing.T) {
	m := New(Options{Runners: 1, QueueDepth: 4})
	defer m.Close()
	release := make(chan struct{})

	running := blockingJob(t, m, release)
	waitState(t, running, Running)

	executed := false
	victim, err := m.submitFunc("victim", 1, func(ctx context.Context, j *job) ([]byte, error) {
		executed = true
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.cancelJob(victim.id) {
		t.Fatal("cancel returned false")
	}
	close(release) // unblock the runner; it should skip the victim

	snap := waitState(t, victim, Failed)
	if executed {
		t.Fatal("cancelled job still executed")
	}
	if snap.Error == "" {
		t.Fatal("cancelled job carries no error")
	}
}

// TestCancelRunningJob cancels mid-flight: the job's context wakes it
// and the state lands in Failed.
func TestCancelRunningJob(t *testing.T) {
	m := New(Options{Runners: 1, QueueDepth: 4})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)

	j := blockingJob(t, m, release)
	waitState(t, j, Running)
	m.cancelJob(j.id)
	waitState(t, j, Failed)
}

// TestSyncRunHitBypassesBusyRunners: a stored result is served even
// when every runner is pinned and the queue is full — a hit is a hash
// lookup, not a job.
func TestSyncRunHitBypassesBusyRunners(t *testing.T) {
	cache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{Runners: 1, QueueDepth: 1, Cache: cache})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)

	// Pin the runner and fill the queue.
	waitState(t, blockingJob(t, m, release), Running)
	blockingJob(t, m, release)

	// Seed the store with the request's canonical bytes, as a previous
	// simulation would have.
	req := wire.RunRequest{Benchmark: "adpcm", Config: "mcd", Window: 8000, Warmup: wire.U64(4000)}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"seeded":true}` + "\n")
	if err := cache.PutBytes(key, payload); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json",
		strings.NewReader(`{"benchmark":"adpcm","config":"mcd","window":8000,"warmup":4000}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" || string(body) != string(payload) {
		t.Fatalf("hit with busy runners: status=%d x-cache=%q body=%q",
			resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
}

// TestCloseFailsQueuedJobs: Close must leave every job in a terminal
// state — a queued job's watchers (NDJSON streams, synchronous
// waiters) would otherwise never wake.
func TestCloseFailsQueuedJobs(t *testing.T) {
	m := New(Options{Runners: 1, QueueDepth: 4})
	release := make(chan struct{})
	defer close(release)

	running := blockingJob(t, m, release)
	waitState(t, running, Running)
	queued := blockingJob(t, m, release)

	closed := make(chan struct{})
	go func() { m.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung")
	}
	for _, j := range []*job{running, queued} {
		if s := j.snapshot(); s.State != Failed || s.Error == "" {
			t.Errorf("job %s after Close: state=%s err=%q, want failed with an error", s.ID, s.State, s.Error)
		}
	}
}

// TestRetentionBoundsJobTable: finished jobs beyond the retention bound
// are dropped oldest-first; live jobs are never dropped.
func TestRetentionBoundsJobTable(t *testing.T) {
	m := New(Options{Runners: 1, QueueDepth: 8})
	defer m.Close()
	m.mu.Lock()
	m.retain = 3
	m.mu.Unlock()

	var last *job
	for i := 0; i < 6; i++ {
		j, err := m.submitFunc("quick", 1, func(ctx context.Context, j *job) ([]byte, error) {
			return []byte("x\n"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, Done)
		last = j
	}
	m.mu.Lock()
	n := len(m.jobs)
	m.mu.Unlock()
	if n > 3 {
		t.Fatalf("job table holds %d jobs, want ≤ 3", n)
	}
	if _, ok := m.job(last.id); !ok {
		t.Fatal("newest job was pruned")
	}
	if _, ok := m.job("j000001"); ok {
		t.Fatal("oldest terminal job survived pruning")
	}
}

// TestJobPanicIsIsolated: a panicking job fails; the runner survives to
// execute the next one.
func TestJobPanicIsIsolated(t *testing.T) {
	m := New(Options{Runners: 1, QueueDepth: 4})
	defer m.Close()

	bad, err := m.submitFunc("bad", 1, func(ctx context.Context, j *job) ([]byte, error) {
		panic("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, bad, Failed)

	good, err := m.submitFunc("good", 1, func(ctx context.Context, j *job) ([]byte, error) {
		return []byte("ok\n"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, good, Done)
	if b, ok := good.result(); !ok || string(b) != "ok\n" {
		t.Fatalf("result = %q, %v", b, ok)
	}
}

// The bounded interval log reports what it overwrote: a consumer that
// lags past maxJobIntervals gets an explicit dropped count, never a
// silent hole.
func TestIntervalLogReportsDrops(t *testing.T) {
	j := &job{wake: make(chan struct{})}
	total := maxJobIntervals + 100
	for i := 0; i < total; i++ {
		j.pushInterval(stats.Interval{Index: i})
	}
	ivs, next, dropped := j.intervalsSince(0)
	if dropped != 100 {
		t.Errorf("dropped = %d, want 100", dropped)
	}
	if len(ivs) != maxJobIntervals || next != total {
		t.Errorf("got %d records, next %d; want %d, %d", len(ivs), next, maxJobIntervals, total)
	}
	if ivs[0].Index != 100 || ivs[len(ivs)-1].Index != total-1 {
		t.Errorf("log window [%d, %d], want [100, %d]", ivs[0].Index, ivs[len(ivs)-1].Index, total-1)
	}
	// A caught-up consumer sees no drops and no records.
	ivs, next2, dropped := j.intervalsSince(next)
	if len(ivs) != 0 || dropped != 0 || next2 != next {
		t.Errorf("caught-up read: %d records, %d dropped", len(ivs), dropped)
	}
}
