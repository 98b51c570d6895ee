package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mcd/internal/journal"
	"mcd/internal/resultcache"
	"mcd/internal/wire"
)

// TestCrashResumeByteIdentity is the crash-safety contract end to end:
// submit jobs, hard-stop the manager mid-run with no drain (Kill — the
// in-process stand-in for SIGKILL), restart over the same journal and
// cache directories, and every job reaches Done under its original ID
// with a body byte-identical to an uninterrupted run's.
func TestCrashResumeByteIdentity(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.ndjson")
	cacheDir := filepath.Join(dir, "cache")

	// Job 1 is long enough (~1s) that the kill reliably lands mid-run;
	// jobs 2 and 3 are still queued behind the single runner.
	long := wire.RunRequest{Benchmark: "adpcm", Config: "attack-decay", Window: 2_000_000, Warmup: wire.U64(4_000), Interval: wire.U64(250)}
	quickA := wire.RunRequest{Benchmark: "adpcm", Config: "mcd", Window: 8_000, Warmup: wire.U64(4_000)}
	quickB := wire.RunRequest{Benchmark: "adpcm", Config: "sync", Window: 8_000, Warmup: wire.U64(4_000)}
	reqs := []wire.RunRequest{long, quickA, quickB}

	// The uninterrupted reference, over its own private cache.
	want := make([][]byte, len(reqs))
	ref := New(Options{Runners: 1})
	for i, r := range reqs {
		j, err := ref.SubmitRunAs("", resolve(t, r))
		if err != nil {
			t.Fatal(err)
		}
		body, _, err := j.WaitResult(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = body
	}
	ref.Close()

	// The interrupted run: journaled, disk-backed cache, killed while
	// job 1 is mid-simulation.
	jnl, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := resultcache.New(resultcache.Options{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{Runners: 1, Journal: jnl, Cache: cache})
	ids := make([]string, len(reqs))
	jobs := make([]*Job, len(reqs))
	for i, r := range reqs {
		j, err := m.SubmitRunAs("crash-client", resolve(t, r))
		if err != nil {
			t.Fatal(err)
		}
		ids[i], jobs[i] = j.ID(), j
	}
	waitState(t, jobs[0], Running)
	m.Kill() // no drain, no terminal journal records — as SIGKILL would leave it

	// Restart over the same journal and cache directories.
	jnl2, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(jnl2.Pending()); got != len(reqs) {
		t.Fatalf("journal replay found %d live jobs, want %d", got, len(reqs))
	}
	cache2, err := resultcache.New(resultcache.Options{Dir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(Options{Runners: 1, Journal: jnl2, Cache: cache2})
	defer m2.Close()
	for i, id := range ids {
		j, ok := m2.Job(id)
		if !ok {
			t.Fatalf("job %s not re-queued after restart", id)
		}
		body, snap, err := j.WaitResult(context.Background())
		if err != nil {
			t.Fatalf("resumed job %s: %v", id, err)
		}
		if snap.State != Done {
			t.Fatalf("resumed job %s state %s, want done", id, snap.State)
		}
		if !bytes.Equal(body, want[i]) {
			t.Errorf("resumed job %s body diverged from the uninterrupted run (%d vs %d bytes)", id, len(body), len(want[i]))
		}
	}

	// The replay gauge reports the resumed set, and new submissions
	// continue the ID sequence past the replayed ones.
	var scrape strings.Builder
	if err := m2.Metrics().Render(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), "mcd_journal_replayed_jobs 3") {
		t.Errorf("scrape missing replay gauge:\n%s", scrape.String())
	}
	j4, err := m2.SubmitRunAs("", resolve(t, quickA))
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID() != "j000004" {
		t.Errorf("post-restart job ID = %s, want j000004 (sequence resumed past replayed IDs)", j4.ID())
	}
}

// TestClientQuota pins the per-client budget: with the runner pinned, a
// client may hold ClientQuota queued jobs; the next submission fails
// with ErrQuota while other clients — and quota-exempt anonymous
// submissions — still get in.
func TestClientQuota(t *testing.T) {
	m := New(Options{Runners: 1, QueueDepth: 16, ClientQuota: 2})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context, j *Job) ([]byte, error) {
		select {
		case <-release:
			return []byte("done\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	running, err := m.enqueue("", nil, "block", 1, block)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, Running)

	var greedyJobs []*Job
	for i := 0; i < 2; i++ {
		j, err := m.enqueue("greedy", nil, "block", 1, block)
		if err != nil {
			t.Fatalf("greedy submission %d within quota: %v", i, err)
		}
		greedyJobs = append(greedyJobs, j)
	}
	if _, err := m.enqueue("greedy", nil, "block", 1, block); !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota submission: err = %v, want ErrQuota", err)
	}
	// The queue itself still has room: another client gets in, and
	// anonymous (library) submissions are exempt entirely.
	if _, err := m.enqueue("polite", nil, "block", 1, block); err != nil {
		t.Fatalf("other client blocked by greedy's quota: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.enqueue("", nil, "block", 1, block); err != nil {
			t.Fatalf("anonymous submission %d hit a quota: %v", i, err)
		}
	}
	// Cancelling one of greedy's queued jobs frees its budget.
	if !m.Cancel(greedyJobs[0].ID()) {
		t.Fatal("cancel returned false")
	}
	waitState(t, greedyJobs[0], Failed)
	if _, err := m.enqueue("greedy", nil, "block", 1, block); err != nil {
		t.Fatalf("submission after freeing quota: %v", err)
	}
}

// TestRejectionResponses pins the 429 contract of the HTTP layer: both
// rejection flavors answer 429 with a Retry-After of at least one
// second, and the body names the reason — quota for a greedy client's
// own bound, queue when the shared queue is exhausted.
func TestRejectionResponses(t *testing.T) {
	m := New(Options{Runners: 1, QueueDepth: 2, ClientQuota: 1})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	running, err := m.enqueue("", nil, "block", 1, func(ctx context.Context, j *Job) ([]byte, error) {
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
	waitState(t, running, Running)

	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()
	post := func(client string) *http.Response {
		req, err := http.NewRequest("POST", srv.URL+"/v1/runs",
			strings.NewReader(`{"benchmark":"adpcm","config":"mcd","window":8000,"warmup":4000,"async":true}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	check429 := func(resp *http.Response, reason string) {
		t.Helper()
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 {
			t.Errorf("Retry-After = %q, want an integer >= 1", resp.Header.Get("Retry-After"))
		}
		var decoded struct {
			Error  string `json:"error"`
			Reason string `json:"reason"`
			Retry  int    `json:"retry_after_seconds"`
		}
		if err := json.Unmarshal(body, &decoded); err != nil {
			t.Fatalf("429 body not JSON: %s", body)
		}
		if decoded.Reason != reason || decoded.Error == "" || decoded.Retry != ra {
			t.Errorf("429 body = %s, want reason %q matching header %d", body, reason, ra)
		}
	}

	if resp := post("greedy"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first greedy submission: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	check429(post("greedy"), "quota") // greedy's own bound, queue still has room
	if resp := post("other"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other client blocked: status %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	check429(post("third"), "queue") // the shared queue is now full

	// The scrape reflects the rejections and the core gauges.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	scrape, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"mcd_queue_depth 2",
		`mcd_jobs{state="running"} 1`,
		`mcd_jobs_rejected_total{reason="quota"} 1`,
		`mcd_jobs_rejected_total{reason="queue"} 1`,
		`mcd_jobs_submitted_total{kind="run"} 2`,
		"mcd_sim_instructions_total",
		`mcd_cache_hits_total{tier="mem"}`,
	} {
		if !strings.Contains(string(scrape), want) {
			t.Errorf("scrape missing %q:\n%s", want, scrape)
		}
	}
}

// TestUserCancelDoesNotResurrect: an explicit DELETE-style cancel is
// terminal in the journal — unlike a crash, the job must not come back
// at the next restart.
func TestUserCancelDoesNotResurrect(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "jobs.ndjson")
	jnl, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{Runners: 1, QueueDepth: 8, Journal: jnl})
	release := make(chan struct{})
	defer close(release)
	running, err := m.enqueue("", nil, "block", 1, func(ctx context.Context, j *Job) ([]byte, error) {
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
	waitState(t, running, Running)

	victim, err := m.SubmitRunAs("alice", resolve(t, wire.RunRequest{Benchmark: "adpcm", Config: "mcd", Window: 8_000, Warmup: wire.U64(4_000)}))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(victim.ID()) {
		t.Fatal("cancel returned false")
	}
	waitState(t, victim, Failed)
	m.Kill()

	jnl2, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	for _, sub := range jnl2.Pending() {
		if sub.ID == victim.ID() {
			t.Fatalf("cancelled job %s resurrected by replay", sub.ID)
		}
	}
}
