package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mcd"
	"mcd/internal/resultcache"
	"mcd/internal/wire"
)

// small keeps service tests fast: a tiny but non-degenerate window.
var small = wire.RunRequest{
	Benchmark: "adpcm",
	Config:    "attack-decay",
	Window:    8_000,
	Warmup:    wire.U64(4_000),
	Interval:  wire.U64(250),
}

func newServer(t *testing.T, opts Options) (*Manager, *httptest.Server) {
	t.Helper()
	if opts.Cache == nil {
		c, err := resultcache.New(resultcache.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Cache = c
	}
	m := New(opts)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		m.Close()
	})
	return m, srv
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunEndToEnd compares the service's answer against a direct
// mcd.Run of the same spec: the serving layer must be a transparent
// memoization of the library, byte for byte.
func TestRunEndToEnd(t *testing.T) {
	_, srv := newServer(t, Options{})

	resp := postJSON(t, srv.URL+"/v1/runs", small)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	body := readBody(t, resp)

	// The same computation through the public library API.
	b, ok := mcd.LookupBenchmark(small.Benchmark)
	if !ok {
		t.Fatal("benchmark missing")
	}
	cfg := mcd.DefaultConfig()
	cfg.SlewNsPerMHz = 4.91 // the wire default
	direct := mcd.Run(mcd.Spec{
		Config:         cfg,
		Profile:        b.Profile,
		Window:         small.Window,
		Warmup:         *small.Warmup,
		IntervalLength: *small.Interval,
		Controller:     mcd.NewAttackDecay(mcd.DefaultParams()),
		Name:           small.Config,
	})
	want, err := resultcache.EncodeResult(direct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("service body differs from direct mcd.Run:\n got %s\nwant %s", body, want)
	}
}

func TestRunRepeatIsByteIdenticalCacheHit(t *testing.T) {
	m, srv := newServer(t, Options{})

	r1 := postJSON(t, srv.URL+"/v1/runs", small)
	b1 := readBody(t, r1)
	r2 := postJSON(t, srv.URL+"/v1/runs", small)
	b2 := readBody(t, r2)

	if got := r2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("repeated identical request returned different bytes")
	}
	s := m.opts.Cache.Stats()
	if s.Misses != 1 || s.Hits() == 0 {
		t.Fatalf("cache stats = %+v, want exactly one simulation", s)
	}
}

func TestRunRejectsUnknownConfig(t *testing.T) {
	_, srv := newServer(t, Options{})
	bad := small
	bad.Config = "bogus"
	resp := postJSON(t, srv.URL+"/v1/runs", bad)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "attack-decay") {
		t.Fatalf("error should list valid configs: %s", body)
	}
}

func TestRunRejectsUnknownFidelity(t *testing.T) {
	_, srv := newServer(t, Options{})
	bad := small
	bad.Fidelity = "turbo"
	resp := postJSON(t, srv.URL+"/v1/runs", bad)
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "exact") || !strings.Contains(string(body), "sampled") {
		t.Fatalf("error should list the valid fidelity set: %s", body)
	}
}

func TestBatchJob(t *testing.T) {
	_, srv := newServer(t, Options{Workers: 2})
	reqs := []wire.RunRequest{small, {Benchmark: "adpcm", Config: "mcd", Window: 8_000, Warmup: wire.U64(4_000), Interval: wire.U64(250)}}
	resp := postJSON(t, srv.URL+"/v1/runs", map[string]any{"runs": reqs})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var snap Snapshot
	if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	body := waitResult(t, srv.URL, snap.ID)
	var results []json.RawMessage
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	// Each element is itself a canonical result; order is submission
	// order, so element 1 is the fixed-max MCD run.
	var r1 struct{ Config string }
	json.Unmarshal(results[1], &r1)
	if r1.Config != "mcd" {
		t.Fatalf("result order broken: %s", results[1])
	}
}

// waitResult polls the job until done and returns its result body.
func waitResult(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var snap Snapshot
		if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
			t.Fatal(err)
		}
		if snap.State == Failed {
			t.Fatalf("job failed: %s", snap.Error)
		}
		if snap.State == Done {
			resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result status %d", resp.StatusCode)
			}
			return readBody(t, resp)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, snap.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExperimentJob runs a 1-benchmark Table 6 through the service and
// checks the output matches the harness run directly with the same
// options — and that the NDJSON event stream terminates with done.
func TestExperimentJob(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment grid in -short mode")
	}
	exp := wire.ExperimentRequest{
		Name: "table6", Quick: true,
		Window: 10_000, Warmup: 5_000,
		Benchmarks: []string{"adpcm"},
	}
	_, srv := newServer(t, Options{})
	resp := postJSON(t, srv.URL+"/v1/experiments", exp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var snap Snapshot
	json.Unmarshal(readBody(t, resp), &snap)

	// The event stream must deliver progress lines ending in a terminal
	// snapshot.
	events, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	var last Snapshot
	lines := 0
	sc := bufio.NewScanner(events.Body)
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if lines == 0 || last.State != Done {
		t.Fatalf("stream ended after %d lines in state %s (%s)", lines, last.State, last.Error)
	}

	body := waitResult(t, srv.URL, snap.ID)
	var res wire.ExperimentResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}

	opts := exp.Options()
	opts.Workers = 1
	direct, err := wire.RunExperimentRequest(opts, wire.ExperimentRequest{Name: "table6"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != direct.Output {
		t.Fatalf("service table differs from direct harness run:\n%s\n---\n%s", res.Output, direct.Output)
	}
	if len(res.Comparisons) != 1 || res.Comparisons[0].Benchmark != "adpcm" {
		t.Fatalf("comparisons = %+v", res.Comparisons)
	}
}

// TestExperimentRejectsIgnoredField: a field the named experiment
// ignores answers 400, and the error names it.
func TestExperimentRejectsIgnoredField(t *testing.T) {
	_, srv := newServer(t, Options{})
	resp := postJSON(t, srv.URL+"/v1/experiments", map[string]any{"name": "table6", "values": []float64{1}})
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "values") {
		t.Fatalf("status %d, body %s; want 400 naming values", resp.StatusCode, body)
	}
}

// TestControllersEndpoint checks the registry self-description: every
// name request validation accepts is advertised, with parameter schemas
// on the parameterized entries.
func TestControllersEndpoint(t *testing.T) {
	_, srv := newServer(t, Options{})
	resp, err := http.Get(srv.URL + "/v1/controllers")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		Controllers []struct {
			Name     string `json:"name"`
			AliasFor string `json:"alias_for"`
			Params   []struct {
				Name    string  `json:"name"`
				Default float64 `json:"default"`
			} `json:"params"`
		} `json:"controllers"`
	}
	if err := json.Unmarshal(readBody(t, resp), &body); err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for i, c := range body.Controllers {
		byName[c.Name] = i
	}
	for _, want := range wire.Controllers() {
		if _, ok := byName[want]; !ok {
			t.Errorf("accepted controller %q not advertised", want)
		}
	}
	if i, ok := byName["pi"]; !ok || len(body.Controllers[i].Params) == 0 {
		t.Error("pi advertised without a parameter schema")
	}
	if i, ok := byName["dynamic-1"]; !ok || body.Controllers[i].AliasFor != "dynamic" {
		t.Error("dynamic-1 not advertised as an alias of dynamic")
	}
}

// TestNewControllersRunByName: pi and coord are runnable end-to-end
// through a plain POST /v1/runs body, and the repeat request is a
// byte-identical cache hit — the acceptance path for registry-added
// controllers.
func TestNewControllersRunByName(t *testing.T) {
	_, srv := newServer(t, Options{})
	for _, req := range []wire.RunRequest{
		{Benchmark: "adpcm", Controller: "pi", Window: 8_000, Warmup: wire.U64(4_000), Interval: wire.U64(250)},
		{Benchmark: "adpcm", Controller: "coord", Params: map[string]float64{"step_mhz": 50},
			Window: 8_000, Warmup: wire.U64(4_000), Interval: wire.U64(250)},
	} {
		r1 := postJSON(t, srv.URL+"/v1/runs", req)
		if r1.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", req.Controller, r1.StatusCode, readBody(t, r1))
		}
		if got := r1.Header.Get("X-Cache"); got != "miss" {
			t.Fatalf("%s: first X-Cache = %q, want miss", req.Controller, got)
		}
		b1 := readBody(t, r1)
		var res struct{ Config string }
		if err := json.Unmarshal(b1, &res); err != nil {
			t.Fatal(err)
		}
		if res.Config != req.Controller {
			t.Errorf("%s: result labeled %q", req.Controller, res.Config)
		}

		r2 := postJSON(t, srv.URL+"/v1/runs", req)
		b2 := readBody(t, r2)
		if got := r2.Header.Get("X-Cache"); got != "hit" {
			t.Fatalf("%s: repeat X-Cache = %q, want hit", req.Controller, got)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: cache hit not byte-identical", req.Controller)
		}
	}
}

func TestJobNotFound(t *testing.T) {
	_, srv := newServer(t, Options{})
	resp, err := http.Get(srv.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestHealthAndCacheStats(t *testing.T) {
	_, srv := newServer(t, Options{})
	for _, path := range []string{"/v1/healthz", "/v1/cache/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK || !json.Valid(body) {
			t.Fatalf("%s: status %d body %s", path, resp.StatusCode, body)
		}
	}
}
