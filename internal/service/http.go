package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"time"

	"mcd/internal/control"
	"mcd/internal/trace"
	"mcd/internal/wire"
)

// NewHandler exposes a Manager as the mcdserve HTTP API:
//
//	POST   /v1/runs          one run ({"async":true} to queue, {"stream":true} for a live NDJSON interval feed) or {"runs":[...]} batch
//	POST   /v1/experiments   {"name":"table6"|...,"quick":true,...} — always a job
//	GET    /v1/controllers   the controller registry: names, docs, parameter schemas
//	GET    /v1/jobs          job list, newest first
//	GET    /v1/jobs/{id}     job snapshot
//	GET    /v1/jobs/{id}/events   NDJSON progress stream until terminal
//	GET    /v1/jobs/{id}/result   the finished job's body
//	GET    /v1/jobs/{id}/trace    the job's flight-recorder trace (Chrome trace-event JSON; needs Options.Trace)
//	DELETE /v1/jobs/{id}     cancel
//	GET    /v1/healthz       liveness
//	GET    /v1/cache/stats   result-store counters
//	GET    /metrics          Prometheus text-format instruments
//	GET    /debug/trace      the rolling process-wide flight recorder (Chrome trace-event JSON)
//
// Synchronous single runs answer with the canonical result encoding and
// an X-Cache: hit|miss header — the byte-identity contract makes a hit
// indistinguishable from a recompute except for that header.
//
// Submissions are attributed to the X-Client header (falling back to
// the remote address) for per-client quota accounting; 429 responses
// carry a Retry-After estimate and distinguish "queue" from "quota" in
// the body.
func NewHandler(m *Manager) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", m.Metrics())
	mux.HandleFunc("POST /v1/runs", func(w http.ResponseWriter, r *http.Request) { handleRuns(m, w, r) })
	mux.HandleFunc("POST /v1/experiments", func(w http.ResponseWriter, r *http.Request) { handleExperiments(m, w, r) })
	mux.HandleFunc("GET /v1/controllers", func(w http.ResponseWriter, r *http.Request) {
		// The registry self-describes: this is the same set request
		// validation accepts, so a client can discover every runnable
		// controller and its parameter schema without a round trip per
		// guess.
		writeJSON(w, http.StatusOK, map[string]any{"controllers": control.Describe()})
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": m.Jobs()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, ErrNotFound)
			return
		}
		writeJSON(w, http.StatusOK, j.Snapshot())
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) { handleEvents(m, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) { handleResult(m, w, r) })
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) { handleJobTrace(m, w, r) })
	mux.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
		if !m.tracing() {
			writeError(w, http.StatusNotFound, errTracingDisabled)
			return
		}
		recs, dropped := m.opts.Trace.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		trace.WriteChrome(w, recs, dropped)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := m.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, ErrNotFound)
			return
		}
		if snap := j.Snapshot(); snap.Terminal() {
			writeError(w, http.StatusConflict, fmt.Errorf("job %s already %s", snap.ID, snap.State))
			return
		}
		m.Cancel(j.ID())
		writeJSON(w, http.StatusOK, map[string]string{"status": "cancelling"})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /v1/cache/stats", func(w http.ResponseWriter, r *http.Request) {
		if m.Cache() == nil {
			writeJSON(w, http.StatusOK, map[string]any{"enabled": false})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"enabled": true, "stats": m.Cache().Stats()})
	})
	return mux
}

// runsPayload is the POST /v1/runs body: one run's fields inline, or a
// batch under "runs" — never both; async turns the single-run form into a queued
// job, stream turns it into a live NDJSON interval feed (async+stream
// queues a stream job whose intervals arrive on its /events feed).
type runsPayload struct {
	wire.RunRequest
	Async  bool              `json:"async,omitempty"`
	Stream bool              `json:"stream,omitempty"`
	Runs   []wire.RunRequest `json:"runs,omitempty"`
}

func handleRuns(m *Manager, w http.ResponseWriter, r *http.Request) {
	var p runsPayload
	if err := decodeBody(w, r, &p); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(p.Runs) > 0 {
		if p.Stream {
			writeError(w, http.StatusBadRequest, errors.New("stream applies to a single run, not a batch"))
			return
		}
		if !reflect.ValueOf(p.RunRequest).IsZero() {
			writeError(w, http.StatusBadRequest, errors.New("a batch takes its runs' fields inside \"runs\", not beside it"))
			return
		}
		j, err := m.SubmitBatchAs(clientID(r), p.Runs)
		if err != nil {
			writeSubmitError(m, w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.Snapshot())
		return
	}
	run, err := p.RunRequest.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if p.Async {
		submit := m.SubmitRunAs
		if p.Stream {
			submit = m.SubmitStreamAs
		}
		j, err := submit(clientID(r), run)
		if err != nil {
			writeSubmitError(m, w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, j.Snapshot())
		return
	}
	if p.Stream {
		handleStreamRun(m, w, r, run)
		return
	}
	// Synchronous: a stored result is served straight from the cache —
	// a hash lookup, never queued behind running experiments. Only a
	// miss costs a job, so the concurrency/queue bounds apply exactly
	// to the requests that simulate.
	if body, ok := probe(m, run); ok {
		w.Header().Set("X-Cache", "hit")
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	j, err := m.SubmitRunAs(clientID(r), run)
	if err != nil {
		writeSubmitError(m, w, err)
		return
	}
	body, snap, err := j.WaitResult(r.Context())
	if err != nil {
		// A client that gave up must not leave its job consuming queue
		// or runner capacity; cancelling is also harmless for a job
		// that already failed.
		m.Cancel(j.ID())
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if snap.CacheHit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// handleStreamRun answers a {"stream":true} run with NDJSON
// wire.StreamFrame lines: one "interval" frame per measured control
// interval as the simulation produces it, then a terminal "result"
// frame whose bytes are exactly the non-streamed response body (or an
// "error" frame). The X-Cache header comes from a store probe before
// streaming starts: a stored result answers as a single hit frame
// without simulating, so the identical follow-up to a completed
// streamed run is a hit — the byte-identity contract extends to
// streams. The terminal frame's "cache" field is the authoritative
// report: when an identical computation lands in flight between the
// probe and the run, a stream that began as X-Cache: miss can legally
// end with zero interval frames and a "cache":"hit" result. A client
// that disconnects cancels the job, which closes the stepped session
// at the next interval boundary.
func handleStreamRun(m *Manager, w http.ResponseWriter, r *http.Request, run wire.Resolved) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if body, ok := probe(m, run); ok {
		w.Header().Set("X-Cache", "hit")
		json.NewEncoder(w).Encode(wire.ResultFrame(body, true))
		return
	}
	j, err := m.SubmitStreamAs(clientID(r), run)
	if err != nil {
		w.Header().Del("Content-Type")
		writeSubmitError(m, w, err)
		return
	}
	w.Header().Set("X-Cache", "miss")
	done := follow(m, w, r, j, func(snap Snapshot) any {
		switch {
		case snap.State == Done:
			body, _ := j.Result()
			return wire.ResultFrame(body, snap.CacheHit)
		case snap.Terminal():
			return wire.ErrorFrame(snap.Error)
		}
		return nil
	})
	if !done {
		// A departed client must not keep simulating; cancellation
		// closes the session between intervals.
		m.Cancel(j.ID())
	}
}

// probe looks a run up in the manager's store; a run with no content
// address is never stored, so it is not probed.
func probe(m *Manager, run wire.Resolved) ([]byte, bool) {
	if run.Key == "" {
		return nil, false
	}
	return m.Cache().GetBytes(run.Key)
}

// errTracingDisabled answers trace requests on an untraced server.
var errTracingDisabled = errors.New("tracing disabled (start mcdserve with -trace)")

// handleJobTrace serves one job's flight-recorder trace as Chrome
// trace-event JSON — drag the body into Perfetto (ui.perfetto.dev) or
// chrome://tracing. Lifecycle spans (queue wait, cache probe, run,
// store write) render on a wall-clock track; the controller decision
// audit renders on a simulated-time track with per-domain frequency and
// occupancy counters. A trace that aged past the retained window
// answers with an empty (but valid) document.
func handleJobTrace(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	if !m.tracing() {
		writeError(w, http.StatusNotFound, errTracingDisabled)
		return
	}
	recs, dropped := j.Trace().Snapshot()
	w.Header().Set("Content-Type", "application/json")
	trace.WriteChrome(w, recs, dropped)
}

func handleExperiments(m *Manager, w http.ResponseWriter, r *http.Request) {
	var e wire.ExperimentRequest
	if err := decodeBody(w, r, &e); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := m.SubmitExperimentAs(clientID(r), e)
	if err != nil {
		writeSubmitError(m, w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Snapshot())
}

// handleEvents streams one NDJSON snapshot line per progress update,
// closing after the terminal line (or when the client goes away). For
// stream jobs the snapshots are interleaved with "interval" frames
// (wire.StreamFrame lines) as the simulation produces them, so an
// async streamed run is observable live through its /events feed.
func handleEvents(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	var last Snapshot
	haveLast := false
	follow(m, w, r, j, func(snap Snapshot) any {
		// Stream jobs wake watchers once per interval; the snapshot line
		// is only worth writing when it actually changed.
		if haveLast && snap == last {
			return nil
		}
		last, haveLast = snap, true
		return snap
	})
}

// follow writes job j's NDJSON feed until the job is terminal or the
// client goes away: on every wake-up, the interval frames produced
// since the last one (after an explicit gap frame when this consumer
// outran the bounded interval log), then line(snap) unless it is nil,
// then a flush. It reports whether the terminal snapshot's line was
// reached; false means the client left first (a failed write or a
// closed request context).
func follow(m *Manager, w http.ResponseWriter, r *http.Request, j *Job, line func(Snapshot) any) bool {
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		ch := j.Watch()
		snap := j.Snapshot()
		ivs, n, dropped := j.IntervalsSince(next)
		next = n
		if dropped > 0 {
			// The metric counts exactly the records each gap frame
			// reports dropped.
			m.met.gapFrames.Add(float64(dropped))
			if enc.Encode(wire.GapFrame(dropped)) != nil {
				return false
			}
		}
		for i := range ivs {
			if enc.Encode(wire.IntervalFrame(&ivs[i])) != nil {
				return false
			}
		}
		var err error
		if v := line(snap); v != nil {
			err = enc.Encode(v)
		}
		if snap.Terminal() {
			return true
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return false
		}
	}
}

func handleResult(m *Manager, w http.ResponseWriter, r *http.Request) {
	j, ok := m.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
		return
	}
	snap := j.Snapshot()
	switch snap.State {
	case Done:
		body, _ := j.Result()
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case Failed:
		writeError(w, http.StatusInternalServerError, errors.New(snap.Error))
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s", snap.ID, snap.State))
	}
}

// maxBodyBytes bounds every request body: the largest legitimate
// payload (a full batch of run requests) is well under 1 MiB, and an
// unbounded body would be the one way a single request could grow
// memory past the queue bound.
const maxBodyBytes = 1 << 20

func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

// clientID is the quota identity of a request: the X-Client header when
// the caller supplies one, otherwise the remote host (so unlabelled
// clients behind one address share a budget rather than escaping it).
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil && host != "" {
		return host
	}
	return r.RemoteAddr
}

// writeSubmitError maps a submission failure to its response. Both
// rejection flavors answer 429 with a Retry-After estimate (the queue
// drained at recent job latency) and name their reason — "queue" means
// everyone is waiting, "quota" means this client specifically should
// back off — so clients can distinguish server pressure from their own.
func writeSubmitError(m *Manager, w http.ResponseWriter, err error) {
	reason := ""
	switch {
	case errors.Is(err, ErrQueueFull):
		reason = "queue"
	case errors.Is(err, ErrQuota):
		reason = "quota"
	case errors.Is(err, ErrFleet):
		reason = "fleet"
	default:
		writeError(w, http.StatusBadRequest, err)
		return
	}
	retry := m.RetryAfter()
	secs := int(retry / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusTooManyRequests, map[string]any{
		"error":               err.Error(),
		"reason":              reason,
		"retry_after_seconds": secs,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
