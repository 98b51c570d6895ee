package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mcd/internal/metrics"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/wire"
)

// WorkerOptions configures the worker side of the fabric: an execute
// endpoint plus a heartbeat loop registering with the coordinator.
type WorkerOptions struct {
	// ID names this worker in the coordinator's registry, metrics and
	// logs. Required.
	ID string
	// Advertise is the base URL the coordinator should dispatch to
	// (scheme://host:port of this worker's own listener). Required.
	Advertise string
	// Coordinator is the base URL to register with. Empty disables the
	// heartbeat loop — useful in tests that call Register directly.
	Coordinator string
	// Slots is the concurrency this worker advertises (default 1).
	Slots int
	// Cache is this worker's local result store; dispatched specs
	// probe and fill it like any local run. May be nil.
	Cache *resultcache.Cache
	// Metrics receives the worker-side mcd_fabric_* instruments; nil
	// uses a private registry.
	Metrics *metrics.Registry
	// Logger receives lifecycle logs; nil discards them.
	Logger *slog.Logger
	// Heartbeat is the registration cadence until the coordinator's
	// welcome overrides it (default 1s).
	Heartbeat time.Duration
	// Client issues the heartbeat POSTs; nil uses a 5s-timeout client.
	Client *http.Client
}

// Worker executes fabric dispatches and keeps itself registered with
// the coordinator. Construct with NewWorker, serve Handler, Start the
// heartbeats, Close on shutdown.
type Worker struct {
	o      WorkerOptions
	log    *slog.Logger
	client *http.Client

	busy     atomic.Int64
	executed *metrics.CounterVec // outcome: ok | error

	hbMu sync.Mutex
	hb   time.Duration

	mipsMu    sync.Mutex
	lastInstr uint64
	lastAt    time.Time
	simMIPS   float64

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewWorker builds a worker; it does nothing until Handler is served
// and Start is called.
func NewWorker(o WorkerOptions) *Worker {
	if o.Slots <= 0 {
		o.Slots = 1
	}
	if o.Heartbeat <= 0 {
		o.Heartbeat = time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.Client == nil {
		o.Client = &http.Client{Timeout: 5 * time.Second}
	}
	reg := o.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	w := &Worker{
		o:      o,
		log:    o.Logger,
		client: o.Client,
		hb:     o.Heartbeat,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	w.executed = reg.CounterVec("mcd_fabric_executes_total", "Dispatched specs executed by this worker, by outcome.", "outcome")
	for _, outcome := range []string{"ok", "error"} {
		w.executed.With(outcome)
	}
	reg.GaugeFunc("mcd_fabric_inflight", "Dispatched specs currently executing on this worker.", func() float64 {
		return float64(w.busy.Load())
	})
	w.lastAt = time.Now()
	w.lastInstr = sim.SimulatedInstructions()
	return w
}

// Handler exposes the worker's dispatch endpoint:
//
//	POST /v1/fabric/execute   run one spec (wire.FabricExecute),
//	                          respond with the canonical result bytes
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/fabric/execute", w.handleExecute)
	return mux
}

func (w *Worker) handleExecute(rw http.ResponseWriter, r *http.Request) {
	var req wire.FabricExecute
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(rw, `{"error":"bad execute body"}`, http.StatusBadRequest)
		return
	}
	run, err := req.Run.Resolve()
	if err != nil {
		http.Error(rw, `{"error":"invalid run"}`, http.StatusBadRequest)
		return
	}
	// Re-derive the content address: a mismatch means the two processes
	// resolve the spec differently (registry drift) and executing would
	// silently poison the shared store. 4xx so the coordinator reports
	// it instead of retrying fleet-wide.
	if req.Key != "" && run.Key != req.Key {
		http.Error(rw, `{"error":"spec key mismatch: coordinator/worker registry drift"}`, http.StatusUnprocessableEntity)
		return
	}
	w.busy.Add(1)
	defer w.busy.Add(-1)
	body, hit, err := run.Run(r.Context(), w.o.Cache, wire.RunHooks{})
	if err != nil {
		if r.Context().Err() != nil {
			return // cancelled by the coordinator (hedge loser); no response matters
		}
		w.executed.With("error").Inc()
		http.Error(rw, `{"error":"simulation failed"}`, http.StatusInternalServerError)
		return
	}
	w.executed.With("ok").Inc()
	rw.Header().Set("Content-Type", "application/json")
	if hit {
		rw.Header().Set("X-Cache", "hit")
	} else {
		rw.Header().Set("X-Cache", "miss")
	}
	rw.Header().Set("X-Worker", w.o.ID)
	rw.Write(body)
}

// Start launches the heartbeat loop (a no-op without a coordinator
// URL). The first hello is sent immediately.
func (w *Worker) Start() {
	if w.o.Coordinator == "" {
		close(w.done)
		return
	}
	go w.loop()
}

func (w *Worker) loop() {
	defer close(w.done)
	w.beat()
	for {
		w.hbMu.Lock()
		hb := w.hb
		w.hbMu.Unlock()
		t := time.NewTimer(hb)
		select {
		case <-w.stop:
			t.Stop()
			return
		case <-t.C:
			w.beat()
		}
	}
}

// beat sends one hello/heartbeat; failures are logged and retried at
// the next tick (the coordinator may simply not be up yet).
func (w *Worker) beat() {
	hello := wire.FabricHello{
		ID:      w.o.ID,
		URL:     w.o.Advertise,
		Slots:   w.o.Slots,
		SimMIPS: w.noteMIPS(),
	}
	b, err := json.Marshal(hello)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.o.Coordinator+"/v1/fabric/register", bytes.NewReader(b))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		w.log.Debug("fabric: heartbeat failed", "error", err)
		return
	}
	defer resp.Body.Close()
	var welcome wire.FabricWelcome
	if json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&welcome) == nil &&
		welcome.OK && welcome.HeartbeatMillis > 0 {
		w.hbMu.Lock()
		w.hb = time.Duration(welcome.HeartbeatMillis) * time.Millisecond
		w.hbMu.Unlock()
	}
}

// noteMIPS samples the process-wide simulated-instruction counter and
// returns the rate since the previous heartbeat in millions per
// wall-clock second — the fleet-TUI throughput figure.
func (w *Worker) noteMIPS() float64 {
	now := time.Now()
	instr := sim.SimulatedInstructions()
	w.mipsMu.Lock()
	defer w.mipsMu.Unlock()
	dt := now.Sub(w.lastAt).Seconds()
	if dt > 0 {
		w.simMIPS = float64(instr-w.lastInstr) / dt / 1e6
	}
	w.lastAt = now
	w.lastInstr = instr
	return w.simMIPS
}

// Close stops the heartbeat loop. In-flight executes finish under the
// HTTP server's own shutdown drain.
func (w *Worker) Close() {
	w.stopOnce.Do(func() { close(w.stop) })
	if w.o.Coordinator != "" {
		<-w.done
	}
}
