package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"maps"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcd/internal/control"
	"mcd/internal/fabric"
	"mcd/internal/journal"
	"mcd/internal/resultcache"
	"mcd/internal/service"
	"mcd/internal/sim"
	"mcd/internal/trace"
	"mcd/internal/wire"
)

// keySpecs and builds count the t-counted definition's key derivations
// and spec builds.
var keySpecs, builds atomic.Int64

func init() {
	control.Register(control.Definition{
		Name: "t-counted",
		Doc:  "attack-decay whose key derivations and builds are counted (test only)",
		KeySpec: func(r control.Run, _ control.Params) (sim.Spec, string, error) {
			keySpecs.Add(1)
			res, err := control.Resolve("mcd", nil)
			if err != nil {
				return sim.Spec{}, "", err
			}
			spec, err := res.Spec(r)
			return spec, "t-counted", err
		},
		Build: func(r control.Run, _ control.Params) (sim.Spec, error) {
			builds.Add(1)
			res, err := control.Resolve("attack-decay", nil)
			if err != nil {
				return sim.Spec{}, err
			}
			return res.Spec(r)
		},
	})
}

// counted runs f and returns how many key derivations and builds of
// t-counted it caused.
func counted(f func()) (keys, built int64) {
	k0, b0 := keySpecs.Load(), builds.Load()
	f()
	return keySpecs.Load() - k0, builds.Load() - b0
}

// postCache posts one run and returns its X-Cache header, failing on
// any status but 200.
func postCache(t *testing.T, url string, body any) string {
	t.Helper()
	resp := postJSON(t, url+"/v1/runs", body)
	b := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	return resp.Header.Get("X-Cache")
}

// TestRequestResolvedOnce counts the content-address derivations a
// request costs on its way through the service: one per process it
// enters, and no spec build at all for a hit.
func TestRequestResolvedOnce(t *testing.T) {
	req := small
	req.Config = "t-counted"
	check := func(name string, wantKeys, wantBuilds int64, f func()) {
		t.Helper()
		if keys, built := counted(f); keys != wantKeys || built != wantBuilds {
			t.Errorf("%s: %d key derivations and %d builds, want %d and %d", name, keys, built, wantKeys, wantBuilds)
		}
	}

	_, srv := newServer(t, service.Options{})
	check("synchronous miss", 1, 1, func() {
		if c := postCache(t, srv.URL, req); c != "miss" {
			t.Errorf("first run X-Cache %q, want miss", c)
		}
	})
	check("synchronous hit", 1, 0, func() {
		if c := postCache(t, srv.URL, req); c != "hit" {
			t.Errorf("repeat run X-Cache %q, want hit", c)
		}
	})

	_, srv = newServer(t, service.Options{})
	check("streamed miss", 1, 1, func() {
		if c := postCache(t, srv.URL, streamPayload(map[string]any{"config": "t-counted"})); c != "miss" {
			t.Errorf("stream X-Cache %q, want miss", c)
		}
	})

	_, srv = newServer(t, service.Options{Trace: trace.NewRing(1024)})
	check("traced synchronous miss", 1, 1, func() { postCache(t, srv.URL, req) })

	cache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord := fabric.NewCoordinator(fabric.Options{Cache: cache, HedgeAfter: time.Minute})
	defer coord.Close()
	worker := fabric.NewWorker(fabric.WorkerOptions{ID: "w1", Advertise: "unused", Slots: 1})
	wsrv := httptest.NewServer(worker.Handler())
	defer wsrv.Close()
	coord.Register(wire.FabricHello{ID: "w1", URL: wsrv.URL, Slots: 1})
	_, srv = newServer(t, service.Options{Cache: cache, Dispatch: coord.Execute})
	// The coordinator derives the key once; the worker's drift check
	// derives it again, from the bytes that crossed the process
	// boundary, and builds the spec it runs.
	check("fabric-dispatched synchronous run", 2, 1, func() { postCache(t, srv.URL, req) })
}

// syncBuffer is a log sink safe for the runner goroutines to write to
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunJobSpansCarryKey checks that a traced run job names its spec
// key from submission on: its queue span, its execute span and its
// "job done" log all carry the same non-empty key.
func TestRunJobSpansCarryKey(t *testing.T) {
	var logs syncBuffer
	_, srv := newServer(t, service.Options{
		Trace:  trace.NewRing(1024),
		Logger: slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	body := map[string]any{
		"benchmark": small.Benchmark, "config": small.Config,
		"window": small.Window, "warmup": *small.Warmup, "interval": *small.Interval,
		"async": true,
	}
	resp := postJSON(t, srv.URL+"/v1/runs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var snap service.Snapshot
	if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	waitResult(t, srv.URL, snap.ID)
	want, err := small.Key()
	if err != nil {
		t.Fatal(err)
	}

	spans := map[string]string{}
	for _, ev := range getChrome(t, srv.URL+"/v1/jobs/"+snap.ID+"/trace").TraceEvents {
		if ev.Ph == "X" && (ev.Name == "queue" || ev.Name == "execute") {
			spans[ev.Name], _ = ev.Args["spec_key"].(string)
		}
	}
	for _, name := range []string{"queue", "execute"} {
		if spans[name] != want {
			t.Errorf("%s span spec_key = %q, want %q", name, spans[name], want)
		}
	}

	// The log line follows the published Done state; wait for it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		logged := ""
		for _, line := range strings.Split(logs.String(), "\n") {
			var rec struct {
				Msg     string `json:"msg"`
				Job     string `json:"job"`
				SpecKey string `json:"spec_key"`
			}
			if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == "job done" && rec.Job == snap.ID {
				logged = rec.SpecKey
			}
		}
		if logged != "" || time.Now().After(deadline) {
			if logged != want {
				t.Errorf(`"job done" log spec_key = %q, want %q`, logged, want)
			}
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobIDsUniqueAcrossRestarts runs a job to completion on a
// journaled manager, restarts over the same journal twice, and checks
// that no ID is ever handed out again — also after the restart's
// compaction has dropped every finished job from the log.
func TestJobIDsUniqueAcrossRestarts(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "jobs.ndjson")
	seen := map[string]bool{}
	for round, bench := range []string{"adpcm", "mcf", "adpcm"} {
		jnl, err := journal.Open(jpath)
		if err != nil {
			t.Fatal(err)
		}
		m := service.New(service.Options{Runners: 1, Journal: jnl})
		run, err := wire.RunRequest{Benchmark: bench, Config: "mcd", Window: 8_000, Warmup: wire.U64(4_000)}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		j, err := m.SubmitRunAs("", run)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := j.WaitResult(context.Background()); err != nil {
			t.Fatal(err)
		}
		m.Close()
		jnl.Close()
		if seen[j.ID()] {
			t.Fatalf("restart %d reused job ID %s", round, j.ID())
		}
		seen[j.ID()] = true
	}
}

// TestTracedBatchRunsCarryTheirKeys checks that a batch's runs, which
// share the single-run path, trace under the job like a single run
// does: one run span per element, each under its own spec key, written
// from concurrent batch workers.
func TestTracedBatchRunsCarryTheirKeys(t *testing.T) {
	_, srv := newServer(t, service.Options{Trace: trace.NewRing(4096), Workers: 2})
	a, b := small, small
	b.Benchmark = "mcf"
	resp := postJSON(t, srv.URL+"/v1/runs", map[string]any{"runs": []wire.RunRequest{a, b}})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var snap service.Snapshot
	if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	waitResult(t, srv.URL, snap.ID)

	want := map[string]bool{}
	for _, r := range []wire.RunRequest{a, b} {
		key, err := r.Key()
		if err != nil {
			t.Fatal(err)
		}
		want[key] = true
	}
	got := map[string]bool{}
	for _, ev := range getChrome(t, srv.URL+"/v1/jobs/"+snap.ID+"/trace").TraceEvents {
		if ev.Ph == "X" && ev.Name == "run" {
			key, _ := ev.Args["spec_key"].(string)
			got[key] = true
		}
	}
	if !maps.Equal(got, want) {
		t.Errorf("batch run spans carry keys %v, want one per element %v", got, want)
	}
}
