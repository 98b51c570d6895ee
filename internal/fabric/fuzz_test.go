package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"mcd/internal/fabric"
	"mcd/internal/resultcache"
	"mcd/internal/wire"
)

// fleetSpecs are the tiny runs a fleet schedule executes: a few thousand
// instructions each, so a schedule runs in milliseconds.
var fleetSpecs = [3]wire.RunRequest{
	{Benchmark: "adpcm", Config: "attack-decay", Window: 3_000, Warmup: wire.U64(1_000), Interval: wire.U64(250)},
	{Benchmark: "mcf", Config: "mcd", Window: 3_000, Warmup: wire.U64(1_000), Interval: wire.U64(250)},
	{Benchmark: "gzip", Config: "sync", Window: 3_000, Warmup: wire.U64(1_000), Interval: wire.U64(250)},
}

// Schedule shape: each (op, arg) byte pair is one step. The fleet is
// small and fixed in size; the bytes vary only the order of events.
const (
	opFail    = iota // the next execute request never reaches its worker
	opDrop           // the next execute request runs, its response is lost
	opDelay          // the next execute request's response is held arg%21 ms
	op5xx            // the next execute request is answered 503
	opKill           // kill live worker arg%live: all its later requests fail
	opJoin           // join a fresh worker
	opExecute        // start an Execute of fleetSpecs[arg%3]
	opWait           // let the fleet run for arg%16 ms
	numOps

	maxSteps       = 48
	maxExecutes    = 8
	maxJoins       = 3
	fleetHeartbeat = 10 * time.Millisecond
	executeTimeout = 5 * time.Second
	failuresToFail = 3 // the fabric's per-spec failure budget
)

// fault is one injected outcome for an execute request.
type fault struct {
	op    int
	delay time.Duration
}

// fleetNet is the in-process network between the coordinator and its
// workers: an http.RoundTripper that routes by URL host to the
// coordinator's or a worker's handler, with no sockets. Heartbeats pass
// untouched; each execute request consumes the next queued fault, and a
// killed worker's requests all fail.
type fleetNet struct {
	coord http.Handler

	mu       sync.Mutex
	workers  map[string]*fleetWorker // by URL host
	faults   []fault
	failures map[string]int // injected failures per spec key
}

type fleetWorker struct {
	w    *fabric.Worker
	h    http.Handler
	dead bool
}

func (n *fleetNet) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Host == "coord" {
		rec := httptest.NewRecorder()
		n.coord.ServeHTTP(rec, req)
		return rec.Result(), nil
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	var ex wire.FabricExecute
	if err := json.Unmarshal(body, &ex); err != nil {
		return nil, err
	}
	n.mu.Lock()
	fw := n.workers[req.URL.Host]
	f := fault{op: -1}
	switch {
	case fw == nil || fw.dead:
		f.op = opFail
	case len(n.faults) > 0:
		f, n.faults = n.faults[0], n.faults[1:]
	}
	if f.op == opFail || f.op == opDrop || f.op == op5xx {
		n.failures[ex.Key]++
	}
	n.mu.Unlock()

	switch f.op {
	case opFail:
		return nil, errors.New("fleetnet: connection refused")
	case op5xx:
		rec := httptest.NewRecorder()
		http.Error(rec, `{"error":"injected"}`, http.StatusServiceUnavailable)
		return rec.Result(), nil
	}
	r := req.Clone(req.Context())
	r.Body = io.NopCloser(bytes.NewReader(body))
	rec := httptest.NewRecorder()
	fw.h.ServeHTTP(rec, r)
	if rec.Body.Len() == 0 {
		// The worker abandoned a cancelled run without answering.
		if err := req.Context().Err(); err != nil {
			return nil, err
		}
		return nil, errors.New("fleetnet: empty response")
	}
	switch f.op {
	case opDrop:
		return nil, errors.New("fleetnet: connection reset")
	case opDelay:
		// The answer is already on the wire: cancelling the request does
		// not stop it, so a hedge loser can still deliver its bytes.
		time.Sleep(f.delay)
	}
	return rec.Result(), nil
}

// join starts one worker registered through the network.
func (n *fleetNet) join(id string) {
	client := &http.Client{Transport: n}
	w := fabric.NewWorker(fabric.WorkerOptions{
		ID: id, Advertise: "http://" + id, Coordinator: "http://coord",
		Heartbeat: fleetHeartbeat, Client: client,
	})
	n.mu.Lock()
	n.workers[id] = &fleetWorker{w: w, h: w.Handler()}
	n.mu.Unlock()
	w.Start()
}

// kill stops the i-th live worker's heartbeats and fails every later
// request to it.
func (n *fleetNet) kill(i int) {
	n.mu.Lock()
	var live []*fleetWorker
	for id := 1; id <= len(n.workers); id++ {
		if fw := n.workers[fmt.Sprintf("w%d", id)]; !fw.dead {
			live = append(live, fw)
		}
	}
	if len(live) == 0 {
		n.mu.Unlock()
		return
	}
	fw := live[i%len(live)]
	fw.dead = true
	n.mu.Unlock()
	fw.w.Close()
}

// FuzzFleetSchedule decodes its input into a fault schedule over a
// fixed in-process fleet — one coordinator with a disk-tier store, three
// workers, joins of fresh ones — and checks the fabric's contract after
// the schedule quiesces: every Execute returns within its deadline with
// the bytes of a local run, failing only when the schedule failed its
// spec at least failuresToFail times; the store sees exactly one lookup
// per Execute, computes each key once and holds one file per key; and
// no goroutine outlives the fleet.
func FuzzFleetSchedule(f *testing.F) {
	var local [len(fleetSpecs)][]byte
	var keys [len(fleetSpecs)]string
	for i, req := range fleetSpecs {
		run, err := req.Resolve()
		if err != nil {
			f.Fatal(err)
		}
		keys[i] = run.Key
		if local[i], _, err = run.Run(context.Background(), nil, wire.RunHooks{}); err != nil {
			f.Fatal(err)
		}
	}
	step := func(op, arg byte) []byte { return []byte{op, arg} }
	seq := func(steps ...[]byte) []byte { return bytes.Join(steps, nil) }
	f.Add(seq(step(opExecute, 0), step(opExecute, 1), step(opExecute, 2), step(opExecute, 0)))
	f.Add(seq(step(opFail, 0), step(opFail, 0), step(opFail, 0), step(opExecute, 0)))
	f.Add(seq(step(opDelay, 20), step(opDelay, 20), step(opExecute, 0), step(opExecute, 0), step(opExecute, 1)))
	f.Add(seq(step(op5xx, 0), step(opDrop, 0), step(opExecute, 1), step(opJoin, 0), step(opExecute, 2)))
	f.Add(seq(step(opExecute, 0), step(opExecute, 1), step(opKill, 1), step(opJoin, 0), step(opExecute, 2), step(opWait, 15)))
	f.Add(seq(step(opKill, 0), step(opKill, 0), step(opKill, 0), step(opWait, 15), step(opWait, 15),
		step(opWait, 15), step(opWait, 15), step(opExecute, 1), step(opExecute, 2)))
	f.Fuzz(func(t *testing.T, schedule []byte) {
		baseline := runtime.NumGoroutine()
		dir := t.TempDir()
		cache, err := resultcache.New(resultcache.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		n := &fleetNet{workers: map[string]*fleetWorker{}, failures: map[string]int{}}
		c := fabric.NewCoordinator(fabric.Options{
			Cache: cache, Heartbeat: fleetHeartbeat, HedgeAfter: 2 * time.Millisecond,
			Client: &http.Client{Transport: n},
		})
		n.coord = c.Handler()
		for i := 1; i <= 3; i++ {
			n.join(fmt.Sprintf("w%d", i))
		}
		for deadline := time.Now().Add(executeTimeout); c.Workers() < 3; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("only %d of 3 workers registered", c.Workers())
			}
		}

		type outcome struct {
			spec int
			body []byte
			err  error
		}
		var (
			wg       sync.WaitGroup
			outcomes []*outcome
			joins    int
		)
		for i := 0; i+1 < len(schedule) && i < 2*maxSteps; i += 2 {
			op, arg := int(schedule[i]%numOps), schedule[i+1]
			switch op {
			case opFail, opDrop, op5xx:
				n.mu.Lock()
				n.faults = append(n.faults, fault{op: op})
				n.mu.Unlock()
			case opDelay:
				n.mu.Lock()
				n.faults = append(n.faults, fault{op: op, delay: time.Duration(arg%21) * time.Millisecond})
				n.mu.Unlock()
			case opKill:
				n.kill(int(arg))
			case opJoin:
				if joins < maxJoins {
					joins++
					n.join(fmt.Sprintf("w%d", 3+joins))
				}
			case opExecute:
				if len(outcomes) == maxExecutes {
					continue
				}
				o := &outcome{spec: int(arg) % len(fleetSpecs)}
				outcomes = append(outcomes, o)
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, cancel := context.WithTimeout(context.Background(), executeTimeout)
					defer cancel()
					o.body, _, o.err = c.Execute(ctx, keys[o.spec], fleetSpecs[o.spec].Normalize())
				}()
			case opWait:
				time.Sleep(time.Duration(arg%16) * time.Millisecond)
			}
		}
		wg.Wait()
		n.mu.Lock()
		failures := maps.Clone(n.failures)
		var workers []*fabric.Worker
		for _, fw := range n.workers {
			workers = append(workers, fw.w)
		}
		n.mu.Unlock()

		ok := map[string]bool{}
		errored := false
		for _, o := range outcomes {
			key := keys[o.spec]
			switch {
			case errors.Is(o.err, context.DeadlineExceeded):
				t.Fatalf("Execute of spec %d did not return within %v", o.spec, executeTimeout)
			case o.err != nil:
				errored = true
				if failures[key] < failuresToFail {
					t.Fatalf("Execute of spec %d failed after %d injected failures (< %d): %v",
						o.spec, failures[key], failuresToFail, o.err)
				}
			case !bytes.Equal(o.body, local[o.spec]):
				t.Fatalf("Execute of spec %d returned bytes that differ from a local run", o.spec)
			default:
				ok[key] = true
			}
		}

		// Quiesce before reading the store: a hedge loser's attempt may
		// still be finishing after its Execute returned.
		for _, w := range workers {
			w.Close()
		}
		c.Close()
		for deadline := time.Now().Add(executeTimeout); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines outlive the fleet (baseline %d)", runtime.NumGoroutine()-baseline, baseline)
			}
		}
		st := cache.Stats()
		if lookups := st.MemHits + st.DiskHits + st.Dedups + st.Misses; lookups != uint64(len(outcomes)) {
			t.Fatalf("store saw %d lookups for %d Executes (%+v)", lookups, len(outcomes), st)
		}
		if !errored && st.Misses != uint64(len(ok)) {
			t.Fatalf("store computed %d times for %d distinct keys", st.Misses, len(ok))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != len(ok) {
			t.Fatalf("store holds %d files for %d successfully executed keys", len(entries), len(ok))
		}
	})
}
