package fabric_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mcd/internal/bench"
	"mcd/internal/fabric"
	"mcd/internal/metrics"
	"mcd/internal/resultcache"
	"mcd/internal/wire"
)

// small keeps fabric tests fast: a tiny but non-degenerate window.
var small = wire.RunRequest{
	Benchmark: "adpcm",
	Config:    "attack-decay",
	Window:    8_000,
	Warmup:    wire.U64(4_000),
	Interval:  wire.U64(250),
}

// localBytes computes the canonical single-process answer for req.
func localBytes(t *testing.T, req wire.RunRequest) []byte {
	t.Helper()
	run, err := req.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	body, _, err := run.Run(context.Background(), nil, wire.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// startWorker serves a real fabric worker on an httptest listener and
// registers it with the coordinator (one hello; tests that need live
// heartbeats re-register themselves).
func startWorker(t *testing.T, c *fabric.Coordinator, id string, slots int) *httptest.Server {
	t.Helper()
	w := fabric.NewWorker(fabric.WorkerOptions{ID: id, Advertise: "filled-below", Slots: slots})
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	c.Register(wire.FabricHello{ID: id, URL: srv.URL, Slots: slots})
	return srv
}

// render scrapes a registry into one string for counter assertions.
func render(t *testing.T, reg *metrics.Registry) string {
	t.Helper()
	var b bytes.Buffer
	if err := reg.Render(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestExecuteDispatchesByteIdentical pins the fabric's core contract:
// a spec executed through a worker returns exactly the bytes a local
// run produces, and lands in the coordinator's shared store (the
// second Execute is a hit that never touches the fleet).
func TestExecuteDispatchesByteIdentical(t *testing.T) {
	cache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	c := fabric.NewCoordinator(fabric.Options{Cache: cache, Metrics: reg})
	defer c.Close()
	startWorker(t, c, "w1", 2)

	req := small.Normalize()
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	body, hit, err := c.Execute(context.Background(), key, req)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first Execute reported a cache hit")
	}
	if want := localBytes(t, small); !bytes.Equal(body, want) {
		t.Fatalf("dispatched bytes differ from local run:\n got %s\nwant %s", body, want)
	}
	body2, hit2, err := c.Execute(context.Background(), key, req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 || !bytes.Equal(body, body2) {
		t.Fatalf("second Execute: hit=%v, identical=%v; want hit, identical", hit2, bytes.Equal(body, body2))
	}
	scrape := render(t, reg)
	if !strings.Contains(scrape, `mcd_fabric_dispatches_total{outcome="ok"} 1`) {
		t.Fatalf("expected exactly one ok dispatch; metrics:\n%s", scrape)
	}
	if stats := cache.Stats(); stats.RemoteLoads != 1 {
		t.Fatalf("RemoteLoads = %d, want 1", stats.RemoteLoads)
	}
}

// TestNoWorkersComputesLocally pins the degenerate fleet: a
// coordinator with zero workers is exactly a single-process server.
func TestNoWorkersComputesLocally(t *testing.T) {
	cache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := fabric.NewCoordinator(fabric.Options{Cache: cache})
	defer c.Close()
	req := small.Normalize()
	key, _ := req.Key()
	body, _, err := c.Execute(context.Background(), key, req)
	if err != nil {
		t.Fatal(err)
	}
	if want := localBytes(t, small); !bytes.Equal(body, want) {
		t.Fatal("local-fallback bytes differ from direct run")
	}
}

// TestFabricSweepByteIdentity is the tentpole pin: a controller grid
// run through a 3-worker fabric (every cacheable cell dispatched over
// HTTP via the ExecAdapter, exactly as a coordinator-run experiment
// does) renders byte-identical tables to the same grid computed in
// process — distribution is pure scheduling.
func TestFabricSweepByteIdentity(t *testing.T) {
	grid := func() bench.Options {
		o := bench.DefaultOptions()
		o.Window = 6_000
		o.Warmup = 3_000
		o.IntervalLength = 500
		o.OfflineIters = 2
		o.Workers = 4
		o.Benchmarks = []string{"adpcm", "mcf", "gzip"}
		return o
	}
	local := grid()
	want := bench.Table6(local.RunAll())

	cache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	c := fabric.NewCoordinator(fabric.Options{Cache: cache, Metrics: reg})
	defer c.Close()
	for _, id := range []string{"w1", "w2", "w3"} {
		startWorker(t, c, id, 2)
	}

	fleet := grid()
	fleet.Exec = wire.ExecAdapter(func(ctx context.Context, key string, req wire.RunRequest) ([]byte, error) {
		body, _, err := c.Execute(ctx, key, req)
		return body, err
	})
	got := bench.Table6(fleet.RunAll())
	if got != want {
		t.Fatalf("fabric table differs from single-process table:\n got:\n%s\nwant:\n%s", got, want)
	}
	scrape := render(t, reg)
	if strings.Contains(scrape, `mcd_fabric_dispatches_total{outcome="ok"} 0`) {
		t.Fatalf("no dispatches happened — the grid never reached the fleet:\n%s", scrape)
	}
}

// TestWorkerDeathRequeue pins fault recovery: a worker that dies with
// a dispatch in flight (connection severed, as a kill -9 would) gets
// its spec requeued to a worker that joined later, and the caller
// still receives byte-identical results.
func TestWorkerDeathRequeue(t *testing.T) {
	cache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	c := fabric.NewCoordinator(fabric.Options{Cache: cache, Metrics: reg})
	defer c.Close()

	// The doomed worker: aborts its first connection mid-request, the
	// client-visible signature of a killed process.
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(20 * time.Millisecond)
		panic(http.ErrAbortHandler)
	}))
	defer dying.Close()
	c.Register(wire.FabricHello{ID: "doomed", URL: dying.URL, Slots: 1})

	req := small.Normalize()
	key, _ := req.Key()
	done := make(chan struct{})
	var body []byte
	var execErr error
	go func() {
		defer close(done)
		body, _, execErr = c.Execute(context.Background(), key, req)
	}()

	// A healthy worker joins while the doomed dispatch is in flight.
	time.Sleep(5 * time.Millisecond)
	startWorker(t, c, "healthy", 1)

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Execute did not recover from the dead worker")
	}
	if execErr != nil {
		t.Fatal(execErr)
	}
	if want := localBytes(t, small); !bytes.Equal(body, want) {
		t.Fatal("requeued result differs from local bytes")
	}
	scrape := render(t, reg)
	if !strings.Contains(scrape, `mcd_fabric_requeues_total{reason="error"} 1`) {
		t.Fatalf("expected one error requeue; metrics:\n%s", scrape)
	}
}

// TestHedgedRaceSingleStoreWrite pins the hedge: with one straggler
// and one fast worker racing the same spec, both computing to the end,
// exactly one result reaches the store and the caller's bytes are the
// canonical ones.
func TestHedgedRaceSingleStoreWrite(t *testing.T) {
	dir := t.TempDir()
	cache, err := resultcache.New(resultcache.Options{Dir: dir, MaxMemBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	c := fabric.NewCoordinator(fabric.Options{
		Cache:      cache,
		Metrics:    reg,
		HedgeAfter: 10 * time.Millisecond,
	})
	defer c.Close()

	// The straggler computes the full result on an uncancellable
	// context — it always finishes, losing the race but proving the
	// race's loser cannot double-write.
	var slowDone atomic.Bool
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(150 * time.Millisecond)
		body := localBytes(t, small)
		slowDone.Store(true)
		w.Write(body)
	}))
	defer slow.Close()
	c.Register(wire.FabricHello{ID: "slow", URL: slow.URL, Slots: 1})

	req := small.Normalize()
	key, _ := req.Key()
	done := make(chan struct{})
	var body []byte
	var execErr error
	go func() {
		defer close(done)
		body, _, execErr = c.Execute(context.Background(), key, req)
	}()
	// The fast worker joins after the dispatch lands on the straggler;
	// the hedge deadline re-dispatches there.
	time.Sleep(20 * time.Millisecond)
	startWorker(t, c, "fast", 1)

	<-done
	if execErr != nil {
		t.Fatal(execErr)
	}
	if want := localBytes(t, small); !bytes.Equal(body, want) {
		t.Fatal("hedged result differs from local bytes")
	}
	// Let the straggler finish its doomed attempt, then check exactly
	// one result landed on disk.
	for i := 0; i < 100 && !slowDone.Load(); i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if !slowDone.Load() {
		t.Fatal("straggler never finished")
	}
	files := 0
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			files++
		}
	}
	if files != 1 {
		t.Fatalf("store holds %d files after the hedged race, want exactly 1", files)
	}
	if misses := cache.Stats().Misses; misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (one single-flighted compute)", misses)
	}
	scrape := render(t, reg)
	if !strings.Contains(scrape, "mcd_fabric_hedges_total 1") {
		t.Fatalf("expected one hedge; metrics:\n%s", scrape)
	}
}

// TestSaturated pins the fleet-wide backpressure signal: a fleet is
// saturated when queued+in-flight reaches four times its slots, and a
// worker-less coordinator never is (its backpressure is the queue).
func TestSaturated(t *testing.T) {
	c := fabric.NewCoordinator(fabric.Options{HedgeAfter: time.Hour})
	defer c.Close()
	if c.Saturated() {
		t.Fatal("empty fleet reports saturated")
	}

	release := make(chan struct{})
	blocked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.Write(localBytes(t, small))
	}))
	defer blocked.Close()
	defer close(release)
	c.Register(wire.FabricHello{ID: "b", URL: blocked.URL, Slots: 1})

	req := small.Normalize()
	key, _ := req.Key()
	for i := 0; i < 4; i++ {
		go c.Execute(context.Background(), key, req)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !c.Saturated() {
		if time.Now().After(deadline) {
			t.Fatal("fleet never saturated with its one slot occupied")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReapedFleetComputesLocally pins the empty-fleet fallback: specs
// queued behind a worker that stops heartbeating and never answers are
// computed on the coordinator once that worker is reaped, and each
// local computation is counted.
func TestReapedFleetComputesLocally(t *testing.T) {
	cache, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	c := fabric.NewCoordinator(fabric.Options{
		Cache: cache, Metrics: reg, Heartbeat: 10 * time.Millisecond, HedgeAfter: time.Hour,
	})
	defer c.Close()

	// The stuck worker holds its one dispatch until released, then drops
	// the connection, as a hung process's would be when it finally dies.
	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		panic(http.ErrAbortHandler)
	}))
	defer stuck.Close()
	c.Register(wire.FabricHello{ID: "stuck", URL: stuck.URL, Slots: 1})

	reqs := []wire.RunRequest{small, small, small}
	reqs[1].Benchmark, reqs[2].Benchmark = "mcf", "gzip"
	bodies := make([][]byte, len(reqs))
	errs := make([]error, len(reqs))
	done := make(chan int)
	for i, r := range reqs {
		go func() {
			req := r.Normalize()
			key, _ := req.Key()
			bodies[i], _, errs[i] = c.Execute(context.Background(), key, req)
			done <- i
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); c.Workers() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the silent worker was never reaped")
		}
	}
	close(release)
	for range reqs {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("Execute did not complete after the fleet emptied")
		}
	}
	for i, r := range reqs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", r.Benchmark, errs[i])
		}
		if !bytes.Equal(bodies[i], localBytes(t, r)) {
			t.Fatalf("%s: local-fallback bytes differ from a direct run", r.Benchmark)
		}
	}
	if scrape := render(t, reg); !strings.Contains(scrape, "mcd_fabric_local_runs_total 3\n") {
		t.Fatalf("expected three local runs; metrics:\n%s", scrape)
	}
}
