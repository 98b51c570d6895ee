// Command mcdtop is a terminal console for an mcdserve fleet node: one
// screen that answers "what is the server doing right now". It polls
// /metrics and /v1/jobs on an interval and tails the newest running
// job's /events feed, rendering:
//
//   - the queue and job-table shape (queued / running / done / failed),
//     process-wide simulated MIPS, and recent job latency
//   - cache traffic by tier (mem / disk / dedup hits vs misses) and the
//     stream gap-record counter
//   - per-runner busy state and attributed simulation throughput
//   - on a fabric coordinator: the worker fleet (per-worker busy,
//     simulated MIPS, heartbeat age) plus the queue depth and the
//     dispatch, hedge and requeue counters
//   - the in-flight job table with age, progress, phase, and whether
//     the job ran locally or was dispatched to the fabric
//   - a live interval line (index, simulated time, IPC, per-domain MHz)
//     when the tailed job is a streamed run
//
// It is plain ANSI — no terminal library, no dependencies — so it runs
// anywhere the server does:
//
//	mcdtop -addr http://localhost:8080
//	mcdtop -addr http://localhost:8080 -snapshot   # print one frame and exit (no escapes)
//
// -snapshot is the headless mode: CI and scripts use it as a one-shot
// fleet health probe (it exits non-zero when the server is unreachable).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mcd/internal/service"
	"mcd/internal/wire"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "mcdserve base URL")
		interval = flag.Duration("interval", time.Second, "poll period")
		rows     = flag.Int("rows", 15, "job-table rows shown")
		snapshot = flag.Bool("snapshot", false, "print one frame without escape codes and exit")
	)
	flag.Parse()
	base := strings.TrimRight(*addr, "/")
	if err := run(base, *interval, *rows, *snapshot); err != nil {
		fmt.Fprintf(os.Stderr, "mcdtop: %v\n", err)
		os.Exit(1)
	}
}

func run(base string, interval time.Duration, rows int, snapshot bool) error {
	client := &http.Client{Timeout: 10 * time.Second}
	if snapshot {
		frame, err := buildFrame(client, base, rows)
		if err != nil {
			return err
		}
		frame.render(os.Stdout, false, "", interval)
		return nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tail := &tailer{client: client, base: base}
	defer tail.stop()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		frame, err := buildFrame(client, base, rows)
		if err != nil {
			// A poll that fails (server restarting, network blip) renders
			// as an error banner, not an exit — top keeps watching.
			fmt.Printf("\x1b[H\x1b[2Jmcdtop: %v (retrying)\n", err)
		} else {
			tail.watch(ctx, frame.newestRunning())
			frame.render(os.Stdout, true, tail.line(), interval)
		}
		select {
		case <-ctx.Done():
			fmt.Print("\x1b[0m\n")
			return nil
		case <-tick.C:
		}
	}
}

// frame is everything one refresh knows.
type frame struct {
	at   time.Time
	base string
	met  metricsSnap
	jobs []service.Snapshot
	rows int
}

func buildFrame(client *http.Client, base string, rows int) (*frame, error) {
	met, err := scrapeMetrics(client, base)
	if err != nil {
		return nil, err
	}
	jobs, err := fetchJobs(client, base)
	if err != nil {
		return nil, err
	}
	return &frame{at: time.Now(), base: base, met: met, jobs: jobs, rows: rows}, nil
}

// metricsSnap is one /metrics scrape: raw series line name (labels and
// all) to value.
type metricsSnap map[string]float64

func scrapeMetrics(client *http.Client, base string) (metricsSnap, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", resp.StatusCode)
	}
	m := metricsSnap{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// series collects a single-label family: label value → metric value.
func (m metricsSnap) series(name string) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		rest, ok := strings.CutPrefix(k, name+"{")
		if !ok {
			continue
		}
		if i := strings.IndexByte(rest, '"'); i >= 0 {
			if j := strings.IndexByte(rest[i+1:], '"'); j >= 0 {
				out[rest[i+1:i+1+j]] = v
			}
		}
	}
	return out
}

func fetchJobs(client *http.Client, base string) ([]service.Snapshot, error) {
	resp, err := client.Get(base + "/v1/jobs")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/jobs: status %d", resp.StatusCode)
	}
	var body struct {
		Jobs []service.Snapshot `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Jobs, nil
}

// newestRunning picks the job the live tail should follow.
func (f *frame) newestRunning() string {
	id := ""
	var started time.Time
	for _, j := range f.jobs {
		if j.State == service.Running && (id == "" || j.Started.After(started)) {
			id, started = j.ID, j.Started
		}
	}
	return id
}

// tailer follows one job's /events feed on a background goroutine and
// keeps only the newest interval frame — the console wants the current
// operating point, not history.
type tailer struct {
	client *http.Client
	base   string

	mu     sync.Mutex
	jobID  string
	latest string
	cancel context.CancelFunc
}

// watch retargets the tail when the newest running job changes; an
// empty id stops it.
func (t *tailer) watch(ctx context.Context, id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == t.jobID {
		return
	}
	if t.cancel != nil {
		t.cancel()
		t.cancel = nil
	}
	t.jobID, t.latest = id, ""
	if id == "" {
		return
	}
	tctx, cancel := context.WithCancel(ctx)
	t.cancel = cancel
	go t.follow(tctx, id)
}

func (t *tailer) stop() { t.watch(context.Background(), "") }

func (t *tailer) follow(ctx context.Context, id string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return
	}
	// The events feed is long-lived; the poll client's timeout would
	// kill it mid-stream.
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var fr wire.StreamFrame
		if json.Unmarshal(sc.Bytes(), &fr) != nil || fr.Type != wire.FrameInterval || fr.Interval == nil {
			continue
		}
		iv := fr.Interval
		line := fmt.Sprintf("%s  #%d  t=%.1fns  ipc %.3f  mhz fe%.0f int%.0f fp%.0f ls%.0f",
			id, iv.Index, iv.EndPS/1e3, iv.IPC,
			iv.FreqMHz[0], iv.FreqMHz[1], iv.FreqMHz[2], iv.FreqMHz[3])
		t.mu.Lock()
		if t.jobID == id {
			t.latest = line
		}
		t.mu.Unlock()
	}
}

func (t *tailer) line() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.latest
}

// render draws one frame. With ansi it clears and homes the screen and
// bolds headings; without (snapshot mode) it prints plain text once.
func (f *frame) render(w io.Writer, ansi bool, live string, poll time.Duration) {
	bold, dim, reset := "", "", ""
	if ansi {
		fmt.Fprint(w, "\x1b[H\x1b[2J")
		bold, dim, reset = "\x1b[1m", "\x1b[2m", "\x1b[0m"
	}
	fmt.Fprintf(w, "%smcdtop%s  %s  %s%s  poll %s%s\n\n",
		bold, reset, f.base, dim, f.at.Format("15:04:05"), poll, reset)

	states := f.met.series("mcd_jobs")
	fmt.Fprintf(w, "jobs    queued %.0f  running %.0f  done %.0f  failed %.0f   queue depth %.0f   latency %.2fs\n",
		states["queued"], states["running"], states["done"], states["failed"],
		f.met["mcd_queue_depth"], f.met["mcd_job_latency_seconds"])
	fmt.Fprintf(w, "sim     %.1f MIPS   %.0f instructions total\n",
		f.met["mcd_sim_mips"], f.met["mcd_sim_instructions_total"])

	hits := f.met.series("mcd_cache_hits_total")
	misses := f.met["mcd_cache_misses_total"]
	total := hits["mem"] + hits["disk"] + hits["dedup"] + misses
	rate := 0.0
	if total > 0 {
		rate = 100 * (total - misses) / total
	}
	fmt.Fprintf(w, "cache   mem %.0f  disk %.0f  dedup %.0f  remote %.0f  miss %.0f  (%.1f%% hit)   entries %.0f  %s   gap records %.0f\n",
		hits["mem"], hits["disk"], hits["dedup"], hits["remote"], misses, rate,
		f.met["mcd_cache_entries"], fmtBytes(f.met["mcd_cache_mem_bytes"]),
		f.met["mcd_stream_gap_frames_total"])

	f.renderFabric(w)

	busy := f.met.series("mcd_runner_busy")
	mips := f.met.series("mcd_runner_sim_mips")
	ids := make([]string, 0, len(busy))
	for id := range busy {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprint(w, "runners ")
	if len(ids) == 0 {
		fmt.Fprint(w, "(none seen yet)")
	}
	for i, id := range ids {
		if i > 0 {
			fmt.Fprint(w, "   ")
		}
		if busy[id] > 0 {
			fmt.Fprintf(w, "r%s busy %.1f MIPS", id, mips[id])
		} else {
			fmt.Fprintf(w, "r%s idle", id)
		}
	}
	fmt.Fprint(w, "\n\n")

	fmt.Fprintf(w, "%s%-8s %-11s %-8s %-9s %-8s %-7s %s%s\n", bold,
		"JOB", "KIND", "STATE", "PROG", "AGE", "EXEC", "TASK", reset)
	for _, j := range f.sortedJobs() {
		prog := fmt.Sprintf("%d", j.Done)
		if j.Total > 0 {
			prog = fmt.Sprintf("%d/%d", j.Done, j.Total)
		}
		where := "local"
		if j.Dispatched {
			where = "fabric"
		}
		task := j.Task
		if j.State == service.Failed && j.Error != "" {
			task = "! " + j.Error
		}
		if len(task) > 40 {
			task = task[:37] + "..."
		}
		fmt.Fprintf(w, "%-8s %-11s %-8s %-9s %-8s %-7s %s\n",
			j.ID, j.Kind, j.State, prog, fmtAge(j, f.at), where, task)
	}
	if n := len(f.jobs) - f.rows; n > 0 {
		fmt.Fprintf(w, "%s... %d older job(s) not shown%s\n", dim, n, reset)
	}
	if live != "" {
		fmt.Fprintf(w, "\n%slive%s    %s\n", bold, reset, live)
	}
}

// renderFabric draws the distributed-fabric panel: one line of fleet
// counters and one line per registered worker, from the mcd_fabric_*
// families a coordinator exports. A node with no fabric (standalone
// server, plain worker) renders nothing — the panel is invisible
// rather than empty.
func (f *frame) renderFabric(w io.Writer) {
	busy := f.met.series("mcd_fabric_worker_busy")
	if _, coordinating := f.met["mcd_fabric_workers"]; !coordinating {
		return
	}
	disp := f.met.series("mcd_fabric_dispatches_total")
	req := f.met.series("mcd_fabric_requeues_total")
	fmt.Fprintf(w, "fabric  workers %.0f  queue %.0f   dispatch ok %.0f err %.0f cancel %.0f   hedges %.0f  requeues %.0f  local %.0f\n",
		f.met["mcd_fabric_workers"], f.met["mcd_fabric_queue"],
		disp["ok"], disp["error"], disp["cancelled"],
		f.met["mcd_fabric_hedges_total"], req["error"], f.met["mcd_fabric_local_runs_total"])
	mips := f.met.series("mcd_fabric_worker_sim_mips")
	beat := f.met.series("mcd_fabric_worker_last_heartbeat_seconds")
	ids := make([]string, 0, len(busy))
	for id := range busy {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Fprintf(w, "  %-28s busy %.0f  %.1f MIPS  beat %.1fs ago\n",
			id, busy[id], mips[id], beat[id])
	}
}

// sortedJobs orders the table for operators: running (longest first),
// then the queue in arrival order, then terminal jobs newest first;
// capped to the row budget.
func (f *frame) sortedJobs() []service.Snapshot {
	js := make([]service.Snapshot, len(f.jobs))
	copy(js, f.jobs)
	rank := func(s service.State) int {
		switch s {
		case service.Running:
			return 0
		case service.Queued:
			return 1
		default:
			return 2
		}
	}
	sort.SliceStable(js, func(a, b int) bool {
		ra, rb := rank(js[a].State), rank(js[b].State)
		if ra != rb {
			return ra < rb
		}
		switch ra {
		case 0:
			return js[a].Started.Before(js[b].Started)
		case 1:
			return js[a].Created.Before(js[b].Created)
		default:
			return js[a].Finished.After(js[b].Finished)
		}
	})
	if len(js) > f.rows {
		js = js[:f.rows]
	}
	return js
}

// fmtAge renders how long the job has been in its current phase:
// waiting since submission, running since start, or (terminal) its
// total execution time.
func fmtAge(j service.Snapshot, now time.Time) string {
	var d time.Duration
	switch j.State {
	case service.Queued:
		d = now.Sub(j.Created)
	case service.Running:
		d = now.Sub(j.Started)
	default:
		if !j.Finished.IsZero() && !j.Started.IsZero() {
			d = j.Finished.Sub(j.Started)
		}
	}
	if d < 0 {
		d = 0
	}
	switch {
	case d < 10*time.Second:
		return d.Round(time.Millisecond).String()
	case d < time.Minute:
		return d.Round(time.Second).String()
	default:
		return d.Round(time.Minute).String()
	}
}

func fmtBytes(b float64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", b/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", b/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", b)
	}
}
