package wire

import (
	"context"
	"fmt"

	"mcd/internal/bench"
)

// Fabric protocol encodings: the JSON bodies of the coordinator/worker
// HTTP exchange (internal/fabric). They live here with the other wire
// types so the protocol is versioned alongside the request and result
// encodings it carries.

// FabricExecute is the body of POST /v1/fabric/execute: one run the
// coordinator wants computed. Key is the content address the
// coordinator derived for the request; the worker re-derives it and
// refuses a mismatch (registry drift between coordinator and worker
// would otherwise poison the shared store under the wrong address).
// The response body on success is the canonical result encoding —
// exactly what the worker's own POST /v1/runs would serve.
type FabricExecute struct {
	Key string     `json:"key"`
	Run RunRequest `json:"run"`
}

// FabricHello is the body of POST /v1/fabric/register: one worker's
// registration, re-sent on every heartbeat. ID names the worker across
// re-registrations; URL is the base address the coordinator dispatches
// to; Slots is how many executes the worker accepts concurrently.
// SimMIPS is the worker's self-reported throughput, surfaced as the
// per-worker mcd_fabric_worker_sim_mips gauge on the coordinator.
type FabricHello struct {
	ID      string  `json:"id"`
	URL     string  `json:"url"`
	Slots   int     `json:"slots"`
	SimMIPS float64 `json:"sim_mips,omitempty"`
}

// FabricWelcome is the coordinator's registration acknowledgement; it
// tells the worker the heartbeat cadence the coordinator's dead-worker
// detector assumes.
type FabricWelcome struct {
	OK              bool  `json:"ok"`
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

// CellRequest converts one harness grid cell into its re-executable
// run request — the bridge between the harness's wire-free dispatch
// hook (bench cannot import wire) and the fabric's RunRequest-based
// execute protocol. The request resolves to the same content address
// the harness computed for the cell, so a fabric-computed cell lands
// in the shared store under the key every other path probes (pinned by
// TestCellRequestSharesAddress). The cell's Store rides along so a
// request prepared in this process shares its row's sub-runs; it is not
// part of the encoding.
func CellRequest(c bench.Cell) RunRequest {
	warmup, interval, slew := c.Warmup, c.Interval, c.Slew
	return RunRequest{
		Benchmark:    c.Benchmark,
		Controller:   c.Controller,
		Params:       c.Params,
		Window:       c.Window,
		Warmup:       &warmup,
		Interval:     &interval,
		SlewNsPerMHz: &slew,
		Fidelity:     c.Fidelity,
		SampleEvery:  c.SampleEvery,
		store:        c.Store,
	}
}

// ExecAdapter adapts a fabric-style dispatch function (key + request →
// canonical body) into the harness's Exec hook, verifying on the way
// through that the cell's content address survives the conversion — a
// coordinator must never dispatch a cell under one key and store the
// result under another.
func ExecAdapter(dispatch func(ctx context.Context, key string, req RunRequest) ([]byte, error)) func(ctx context.Context, c bench.Cell) ([]byte, error) {
	return func(ctx context.Context, c bench.Cell) ([]byte, error) {
		req := CellRequest(c)
		key, err := req.Key()
		if err != nil {
			return nil, fmt.Errorf("wire: cell %s does not round-trip to a request: %w", c.Label, err)
		}
		if key != c.Key {
			return nil, fmt.Errorf("wire: cell %s key mismatch: harness %s, request %s", c.Label, c.Key, key)
		}
		return dispatch(ctx, key, req)
	}
}
