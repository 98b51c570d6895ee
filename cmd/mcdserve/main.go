// Command mcdserve is the long-running experiment service: an HTTP
// front end over the job manager (internal/service) and the
// content-addressed deterministic result store (internal/resultcache).
// Because every simulation is a pure function of its spec, identical
// requests are served from the store byte-identically to a recompute —
// the second POST of the same run costs a hash lookup, not a
// simulation.
//
// Usage:
//
//	mcdserve -addr :8080 -cache /var/cache/mcd
//
// then:
//
//	curl localhost:8080/v1/controllers                # the controller registry
//	curl -d '{"benchmark":"mcf","config":"attack-decay","window":40000,"warmup":20000}' localhost:8080/v1/runs
//	curl -d '{"benchmark":"mcf","controller":"pi","params":{"kp":0.08},"window":40000}' localhost:8080/v1/runs
//	curl -N -d '{"stream":true,"benchmark":"mcf","window":40000}' localhost:8080/v1/runs   # live NDJSON interval frames
//	curl -d '{"name":"table6","quick":true}' localhost:8080/v1/experiments
//	curl -d '{"name":"sweep-controller","controller":"coord","param":"budget_mhz","quick":true}' localhost:8080/v1/experiments
//	curl localhost:8080/v1/jobs/j000001/events        # NDJSON progress
//	curl localhost:8080/v1/jobs/j000001/result
//	curl localhost:8080/v1/jobs/j000001/trace         # Chrome trace-event JSON (needs -trace)
//	curl localhost:8080/v1/cache/stats
//	curl localhost:8080/metrics                       # Prometheus text format
//
// With -journal DIR every submission is persisted before it is
// acknowledged, and a restarted server replays whatever was queued or
// running when the previous process died. The journal holds no result
// bytes: a finished result outlives a restart only in -cache DIR, as a
// hit. -client-quota N bounds the queued jobs one client (the X-Client
// header, or the remote address) may hold at once.
//
// Observability:
//
//   - -trace arms the flight recorder: per-job lifecycle spans and the
//     per-interval controller decision audit, exported as Chrome
//     trace-event JSON at /v1/jobs/{id}/trace and /debug/trace (open in
//     ui.perfetto.dev). Off by default; the untraced hot path records
//     nothing and takes no timestamps.
//   - -log-format selects text (default) or json structured logs on
//     stderr; job logs carry job, client and spec_key attributes.
//   - -pprof ADDR serves net/http/pprof on a second listener, kept off
//     the public API address (see internal/prof for the offline
//     profiling harness the endpoints complement).
//   - mcdtop (cmd/mcdtop) is the matching fleet console: it polls
//     /metrics and tails /events into a terminal dashboard.
//
// Distributed fabric (one binary, two roles):
//
//	mcdserve -addr :8080 -cache /var/cache/mcd -coordinator
//	mcdserve -addr :8081 -cache /var/cache/w1 -worker -join http://127.0.0.1:8080
//	mcdserve -addr :8082 -cache /var/cache/w2 -worker -join http://127.0.0.1:8080
//
// A -coordinator keeps the whole API surface but dispatches every
// cache-missing, content-addressed spec to its registered workers
// (one queue every worker slot pulls from, hedged retries, retried
// failures); the shared result store means a spec computed anywhere is
// a hit everywhere, and determinism makes the distributed bytes identical to
// a single-process run. A -worker serves POST /v1/fabric/execute and
// heartbeats to -join; -advertise overrides the URL it registers
// (default: 127.0.0.1 at the -addr port). When the fleet is saturated
// the coordinator sheds new submissions with 429 reason "fleet".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mcd/internal/fabric"
	"mcd/internal/journal"
	"mcd/internal/metrics"
	"mcd/internal/resultcache"
	"mcd/internal/service"
	"mcd/internal/trace"
)

// traceRingDepth bounds the process-wide /debug/trace ring: enough for
// the recent history of a busy fleet, fixed so the recorder can never
// grow with uptime.
const traceRingDepth = 8192

type options struct {
	addr      string
	cacheDir  string
	cacheMem  int64
	workers   int
	runners   int
	queue     int
	journalD  string
	quota     int
	traceOn   bool
	logFormat string
	pprofAddr string

	coordinator bool
	worker      bool
	join        string
	advertise   string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.cacheDir, "cache", "", "result-store directory (empty: memory tier only)")
	flag.Int64Var(&o.cacheMem, "cache-mem", 0, "in-memory result-store bound in bytes (0: default 64 MiB, <0: disk only)")
	flag.IntVar(&o.workers, "workers", runtime.NumCPU(), "parallel simulations per job")
	flag.IntVar(&o.runners, "runners", 2, "jobs executing concurrently")
	flag.IntVar(&o.queue, "queue", 64, "queued-job bound; beyond it submissions get 429")
	flag.StringVar(&o.journalD, "journal", "", "job-journal directory; submitted jobs survive crashes and restarts (empty: no persistence)")
	flag.IntVar(&o.quota, "client-quota", 0, "queued jobs one client may hold at once (0: unlimited)")
	flag.BoolVar(&o.traceOn, "trace", false, "arm the flight recorder: lifecycle spans and controller decision audit at /v1/jobs/{id}/trace and /debug/trace")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log encoding on stderr: text or json")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this extra address (empty: off)")
	flag.BoolVar(&o.coordinator, "coordinator", false, "coordinate a worker fleet: dispatch content-addressed specs to joined -worker processes")
	flag.BoolVar(&o.worker, "worker", false, "serve fabric dispatches and heartbeat to the -join coordinator")
	flag.StringVar(&o.join, "join", "", "coordinator base URL a -worker registers with (e.g. http://127.0.0.1:8080)")
	flag.StringVar(&o.advertise, "advertise", "", "base URL the coordinator should dispatch to (default: http://127.0.0.1 at the -addr port)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "mcdserve: %v\n", err)
		os.Exit(1)
	}
}

// defaultAdvertise derives the URL a worker registers from its listen
// address: loopback when the address binds all interfaces (the
// one-host deployment recipe), the bound host otherwise.
func defaultAdvertise(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://127.0.0.1:8080"
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// newLogger builds the process logger for -log-format.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (text or json)", format)
	}
}

// servePprof exposes the runtime profiling endpoints on their own
// listener so they never ride the public API address. Returns the
// bound address (for the startup log) or an error if the listen fails
// — a misconfigured -pprof should fail loudly, not silently profile
// nothing.
func servePprof(addr string, logger *slog.Logger) (string, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("pprof listen: %w", err)
	}
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			logger.Warn("pprof server stopped", "err", err)
		}
	}()
	return ln.Addr().String(), nil
}

func run(o options) error {
	logger, err := newLogger(o.logFormat)
	if err != nil {
		return err
	}
	cache, err := resultcache.New(resultcache.Options{Dir: o.cacheDir, MaxMemBytes: o.cacheMem})
	if err != nil {
		return err
	}
	var jnl *journal.Journal
	if o.journalD != "" {
		jnl, err = journal.Open(filepath.Join(o.journalD, "jobs.ndjson"))
		if err != nil {
			return err
		}
	}
	var ring *trace.Ring
	if o.traceOn {
		ring = trace.NewRing(traceRingDepth)
	}
	if o.coordinator && o.worker {
		return errors.New("-coordinator and -worker are mutually exclusive (one process, one role)")
	}
	if o.worker && o.join == "" {
		return errors.New("-worker requires -join (the coordinator's base URL)")
	}
	advertise := o.advertise
	if advertise == "" {
		advertise = defaultAdvertise(o.addr)
	}

	// One registry serves /metrics for both the job manager and the
	// fabric role, so mcd_fabric_* and mcd_jobs_* scrape together.
	reg := metrics.New()
	var coord *fabric.Coordinator
	svcOpts := service.Options{
		Runners:     o.runners,
		QueueDepth:  o.queue,
		Workers:     o.workers,
		Cache:       cache,
		Journal:     jnl,
		ClientQuota: o.quota,
		Metrics:     reg,
		Trace:       ring,
		Logger:      logger,
	}
	if o.coordinator {
		coord = fabric.NewCoordinator(fabric.Options{
			Cache:   cache,
			Metrics: reg,
			Trace:   ring,
			Logger:  logger,
		})
		svcOpts.Dispatch = coord.Execute
		svcOpts.Gate = func() error {
			if coord.Saturated() {
				return service.ErrFleet
			}
			return nil
		}
	}
	// No deferred Close: the shutdown path below closes the manager
	// with a bounded wait, and every other exit ends the process, which
	// reaps the workers anyway.
	mgr := service.New(svcOpts)

	var wrk *fabric.Worker
	if o.worker {
		wrk = fabric.NewWorker(fabric.WorkerOptions{
			ID:          advertise,
			Advertise:   advertise,
			Coordinator: o.join,
			Slots:       o.workers,
			Cache:       cache,
			Metrics:     reg,
			Logger:      logger,
		})
	}

	if o.pprofAddr != "" {
		bound, err := servePprof(o.pprofAddr, logger)
		if err != nil {
			return err
		}
		logger.Info("pprof listening", "addr", bound)
	}

	handler := http.Handler(service.NewHandler(mgr))
	if coord != nil || wrk != nil {
		mux := http.NewServeMux()
		if coord != nil {
			mux.Handle("POST /v1/fabric/register", coord.Handler())
		}
		if wrk != nil {
			mux.Handle("POST /v1/fabric/execute", wrk.Handler())
		}
		mux.Handle("/", handler)
		handler = mux
	}
	srv := &http.Server{Addr: o.addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	if wrk != nil {
		wrk.Start()
	}
	role := "standalone"
	if o.coordinator {
		role = "coordinator"
	} else if o.worker {
		role = "worker"
	}
	logger.Info("listening",
		"addr", o.addr, "cache_dir", o.cacheDir, "role", role,
		"workers", o.workers, "runners", o.runners, "trace", o.traceOn)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	// Close the manager first: failing every job lands each watcher on
	// a terminal snapshot, so open NDJSON streams and synchronous run
	// waits end immediately — otherwise Shutdown (which does not cancel
	// request contexts) would block on them until its deadline. The
	// wait is bounded: cancellation only takes effect between
	// simulations, so a job mid-run could otherwise pin shutdown for
	// the length of its longest simulation; past the deadline the
	// worker goroutines are abandoned to die with the process.
	closed := make(chan struct{})
	go func() { mgr.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		logger.Warn("a running simulation outlived the close deadline; abandoning it")
	}
	// The coordinator drains after the manager: with job contexts
	// already cancelled, in-flight dispatches resolve promptly and
	// nothing new is admitted. The worker just stops heartbeating; its
	// in-flight executes finish under the HTTP server's own drain.
	if coord != nil {
		coord.Close()
	}
	if wrk != nil {
		wrk.Close()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
