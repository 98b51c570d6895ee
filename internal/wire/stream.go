package wire

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"

	"mcd/internal/clock"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
)

// Frame type tags of the streamed-run NDJSON encoding.
const (
	FrameInterval = "interval"
	FrameResult   = "result"
	FrameError    = "error"
	// FrameGap reports intervals a lagging consumer missed: the
	// server's bounded per-job interval log overwrote Dropped records
	// before they could be sent. The stream stays well-formed — the
	// gap is explicit, never silent.
	FrameGap = "gap"
)

// StreamFrame is one NDJSON line of a streamed run: the body of
// POST /v1/runs with "stream":true, the interval lines a stream job's
// /events feed interleaves with its progress snapshots, and what
// mcdsim -live -json prints. A stream is zero or more "interval"
// frames followed by exactly one terminal "result" or "error" frame.
type StreamFrame struct {
	Type string `json:"type"`
	// Interval carries one measured control interval's telemetry
	// (Type "interval").
	Interval *stats.Interval `json:"interval,omitempty"`
	// Result carries the canonical result encoding (Type "result") —
	// byte-identical to the body a non-streamed run of the same request
	// serves.
	Result json.RawMessage `json:"result,omitempty"`
	// Cache reports "hit" or "miss" on the result frame.
	Cache string `json:"cache,omitempty"`
	// Error carries the failure message of a terminal "error" frame.
	Error string `json:"error,omitempty"`
	// Dropped counts the interval records a "gap" frame stands in for.
	Dropped int `json:"dropped,omitempty"`
}

// IntervalFrame wraps one interval record as a stream frame.
func IntervalFrame(iv *stats.Interval) StreamFrame {
	return StreamFrame{Type: FrameInterval, Interval: iv}
}

// ResultFrame wraps a canonical result body (trailing newline and all)
// as the terminal stream frame.
func ResultFrame(body []byte, hit bool) StreamFrame {
	cache := "miss"
	if hit {
		cache = "hit"
	}
	return StreamFrame{Type: FrameResult, Result: json.RawMessage(bytes.TrimSuffix(body, []byte("\n"))), Cache: cache}
}

// ErrorFrame wraps a failure as the terminal stream frame.
func ErrorFrame(msg string) StreamFrame {
	return StreamFrame{Type: FrameError, Error: msg}
}

// GapFrame marks n interval records lost to a lagging consumer.
func GapFrame(n int) StreamFrame {
	return StreamFrame{Type: FrameGap, Dropped: n}
}

// RunHooks bundles the optional observation points of Resolved.Run. Every hook
// may be nil; the zero value is an unobserved run. Hooks run on the
// simulating goroutine and must be cheap relative to a control
// interval — the tracing layer records a fixed-size value per call.
type RunHooks struct {
	// Emit receives every measured control interval as it is produced.
	Emit func(stats.Interval)
	// Cache observes the result-store phases of the request: probe
	// outcome and tier, compute bracket, disk persist bracket.
	Cache *resultcache.Obs
	// Decide is the controller decision audit: at every measured
	// interval boundary it receives the interval record (inputs: the
	// occupancies/IPC the controller saw, and the frequencies the
	// interval ran at), the per-domain frequencies the controller chose
	// for the next interval, and the controller's own note when it
	// implements pipeline.DecisionNoter (coord's budget redistribution).
	Decide func(iv stats.Interval, chosen [clock.NumControllable]float64, note string)
}

// Run executes the resolved request through a stepped simulation
// session and returns the canonical result body — exactly what
// cmd/mcdsim computes for the same flags, and a pure function of the
// request. Every measured control interval goes to h.Emit as it is
// produced.
//
// The run goes through c under r.Key by the store's own rule
// (resultcache.Cache.DoBytes): a nil store or a request whose controller
// has no content address (resultcache.ErrUncacheable, an empty Key)
// computes directly, and a hit (including joining an identical
// in-flight computation) returns the stored bytes without simulating
// and emits nothing. Any other key error fails the run. Cancelling ctx
// closes the session at the next interval boundary and returns
// ctx.Err(); the partial result is discarded, never stored.
func (r Resolved) Run(ctx context.Context, c *resultcache.Cache, h RunHooks) (body []byte, hit bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	compute := func() ([]byte, error) {
		spec, err := r.Spec()
		if err != nil {
			return nil, err
		}
		ses, err := sim.Open(spec)
		if err != nil {
			return nil, err
		}
		if h.Emit != nil {
			ses.Observe(h.Emit)
		}
		if h.Decide != nil {
			noter, _ := spec.Controller.(pipeline.DecisionNoter)
			ses.ObserveDecision(func(iv stats.Interval, chosen [clock.NumControllable]float64) {
				note := ""
				if noter != nil {
					note = noter.DecisionNote()
				}
				h.Decide(iv, chosen, note)
			})
		}
		for ses.Step(1) {
			if err := ctx.Err(); err != nil {
				ses.Close()
				return nil, err
			}
		}
		return resultcache.EncodeResult(ses.Close())
	}
	if r.keyErr != nil && !errors.Is(r.keyErr, resultcache.ErrUncacheable) {
		return nil, false, r.keyErr
	}
	return c.DoBytes(r.Key, compute, h.Cache)
}
