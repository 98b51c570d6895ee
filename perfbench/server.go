package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mcd/internal/fabric"
	"mcd/internal/journal"
	"mcd/internal/metrics"
	"mcd/internal/resultcache"
	"mcd/internal/service"
	"mcd/internal/trace"
)

// traceDepth bounds a traced stack's process-wide ring: a whole pass's
// lifecycle spans and controller decisions fit in it.
const traceDepth = 1 << 15

// stackOpts shapes one in-process serving stack.
type stackOpts struct {
	disk    bool  // the result store gets a disk tier
	maxMem  int64 // memory-tier bound (0: the store's default)
	journal bool
	traced  bool
	fabric  int // in-process fabric workers of one slot each (0: a single-process server)
	workers int // simulations one job runs at once
}

// stack is one serving stack on loopback: a job manager behind its HTTP
// handler and, when asked for, a fabric coordinator with its workers —
// wired the way cmd/mcdserve wires them.
type stack struct {
	dir    string
	url    string
	store  *resultcache.Cache
	jnl    *journal.Journal
	jpath  string
	ring   *trace.Ring
	mgr    *service.Manager
	coord  *fabric.Coordinator
	wrks   []*fabric.Worker
	srvs   []*http.Server
	client *http.Client
	closed bool
}

func newStack(parent string, o stackOpts) (*stack, error) {
	dir, err := os.MkdirTemp(parent, "stack-")
	if err != nil {
		return nil, err
	}
	s := &stack{dir: dir, client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}}
	if err := s.start(o); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *stack) start(o stackOpts) error {
	so := resultcache.Options{MaxMemBytes: o.maxMem}
	if o.disk {
		so.Dir = filepath.Join(s.dir, "store")
	}
	var err error
	if s.store, err = resultcache.New(so); err != nil {
		return err
	}
	if o.journal {
		s.jpath = filepath.Join(s.dir, "journal", "jobs.ndjson")
		if s.jnl, err = journal.Open(s.jpath); err != nil {
			return err
		}
	}
	if o.traced {
		s.ring = trace.NewRing(traceDepth)
	}
	reg := metrics.New()
	opts := service.Options{Runners: 1, Workers: o.workers, Cache: s.store, Journal: s.jnl, Metrics: reg, Trace: s.ring}
	if o.fabric > 0 {
		// The hour-long heartbeat keeps the janitor and the workers' beats
		// out of the measurement, and the pinned hedge deadline sits far
		// above any cell, so no dispatch is ever duplicated.
		coord := fabric.NewCoordinator(fabric.Options{
			Cache: s.store, Metrics: reg, Trace: s.ring,
			Heartbeat: time.Hour, HedgeAfter: 10 * time.Minute,
		})
		s.coord = coord
		opts.Dispatch = coord.Execute
		opts.Gate = func() error {
			if coord.Saturated() {
				return service.ErrFleet
			}
			return nil
		}
	}
	s.mgr = service.New(opts)
	h := http.Handler(service.NewHandler(s.mgr))
	if s.coord != nil {
		mux := http.NewServeMux()
		mux.Handle("POST /v1/fabric/register", s.coord.Handler())
		mux.Handle("/", h)
		h = mux
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.url = "http://" + ln.Addr().String()
	s.serve(ln, h)
	for i := 0; i < o.fabric; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		url := "http://" + ln.Addr().String()
		w := fabric.NewWorker(fabric.WorkerOptions{ID: fmt.Sprintf("w%d", i+1), Advertise: url, Coordinator: s.url, Slots: 1})
		s.serve(ln, w.Handler())
		s.wrks = append(s.wrks, w)
		w.Start()
	}
	for deadline := time.Now().Add(10 * time.Second); s.coord != nil && s.coord.Workers() < o.fabric; {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d fabric workers registered", s.coord.Workers(), o.fabric)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

func (s *stack) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ErrorLog: log.New(io.Discard, "", 0)}
	s.srvs = append(s.srvs, srv)
	go srv.Serve(ln) // returns http.ErrServerClosed once close runs
}

// close stops the stack — jobs, fabric, listeners — and removes its
// files. It is idempotent.
func (s *stack) close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.mgr != nil {
		s.mgr.Close()
	}
	if s.coord != nil {
		s.coord.Close()
	}
	for _, w := range s.wrks {
		w.Close()
	}
	for _, srv := range s.srvs {
		srv.Close()
	}
	s.client.CloseIdleConnections()
	s.jnl.Close()
	os.RemoveAll(s.dir)
}

// call issues one request and reads the whole response.
func (s *stack) call(method, path string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.url+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, out, err
}

// postRun sends one synchronous run and checks the answer: status 200,
// the expected X-Cache, and — when want is set — the body's SHA-256.
// corrupt alters the body before the checks (the self-test's hook).
func (s *stack) postRun(body []byte, cache, want string, corrupt bool) ([]byte, error) {
	code, hdr, out, err := s.call(http.MethodPost, "/v1/runs", body)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(out))
	}
	if corrupt {
		out = corrupted(out)
	}
	if got := hdr.Get("X-Cache"); got != cache {
		return nil, fmt.Errorf("X-Cache %q, want %q", got, cache)
	}
	if want != "" {
		if got := digest(out); got != want {
			return nil, fmt.Errorf("body digest %.12s, want %.12s", got, want)
		}
	}
	return out, nil
}

// corrupted returns a copy of b with one byte altered.
func corrupted(b []byte) []byte {
	c := append([]byte(nil), b...)
	if len(c) > 0 {
		c[len(c)/2] ^= 0x01
	}
	return c
}

// batch submits one batch job and waits for its body the way a client
// does: POST /v1/runs {"runs":[...]} (202 and the job), GET its /events
// feed to the terminal snapshot, GET its /result.
func (s *stack) batch(payload []byte) ([]byte, error) {
	code, _, out, err := s.call(http.MethodPost, "/v1/runs", payload)
	if err != nil {
		return nil, err
	}
	if code != http.StatusAccepted {
		return nil, fmt.Errorf("batch submit: status %d: %s", code, bytes.TrimSpace(out))
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(out, &job); err != nil || job.ID == "" {
		return nil, fmt.Errorf("batch submit: no job id in %q", out)
	}
	code, _, events, err := s.call(http.MethodGet, "/v1/jobs/"+job.ID+"/events", nil)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(events), []byte("\n"))
	var last struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if code != http.StatusOK || json.Unmarshal(lines[len(lines)-1], &last) != nil || last.State != "done" {
		return nil, fmt.Errorf("batch job %s ended %q: %s", job.ID, last.State, last.Error)
	}
	code, _, out, err = s.call(http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("batch result: status %d: %s", code, bytes.TrimSpace(out))
	}
	return out, nil
}

// scrape reads the stack's GET /metrics counters: series → value.
func (s *stack) scrape() (map[string]float64, error) {
	code, _, body, err := s.call(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// family sums every series of one metric family.
func family(m map[string]float64, name string) float64 {
	var sum float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// healthz is one GET /v1/healthz round trip: what the HTTP transport
// alone costs an op, apart from any handler work. A traced run
// interleaves it with the workload's ops, and its median prices the HTTP
// share of the blocking path.
func (s *stack) healthz(int) error {
	code, _, _, err := s.call(http.MethodGet, "/v1/healthz", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("healthz: status %d", code)
	}
	return err
}

// journalLines counts the records in the stack's journal once appends
// stop arriving (a job's done record follows its response).
func (s *stack) journalLines() (int, error) {
	last := -1
	for i := 0; i < 100; i++ {
		b, err := os.ReadFile(s.jpath)
		if err != nil {
			return 0, err
		}
		n := bytes.Count(b, []byte("\n"))
		if n == last {
			return n, nil
		}
		last = n
		time.Sleep(20 * time.Millisecond)
	}
	return last, nil
}

// records snapshots the traced stack's ring.
func (s *stack) records() []trace.Record {
	recs, _ := s.ring.Snapshot()
	return recs
}

// spanDurations returns the named span records' durations in seconds,
// in recording order.
func spanDurations(recs []trace.Record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Kind == trace.KindSpan && r.Name == name {
			out = append(out, float64(r.DurUS)/1e6)
		}
	}
	return out
}

// spansByKey indexes the named span records by spec key.
func spansByKey(recs []trace.Record, name string) map[string]trace.Record {
	out := map[string]trace.Record{}
	for _, r := range recs {
		if r.Kind == trace.KindSpan && r.Name == name && r.Key != "" {
			out[r.Key] = r
		}
	}
	return out
}

// covered is the length of the union of [start, end) intervals: the
// time at least one of them was in progress.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, end int64
	for i, iv := range ivs {
		switch {
		case i == 0 || iv[0] >= end:
			total += iv[1] - iv[0]
			end = iv[1]
		case iv[1] > end:
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}
