package service_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"mcd/internal/service"
	"mcd/internal/wire"
)

// streamPayload is the {"stream":true} run body.
func streamPayload(extra map[string]any) map[string]any {
	p := map[string]any{
		"stream":    true,
		"benchmark": small.Benchmark,
		"config":    small.Config,
		"window":    small.Window,
		"warmup":    *small.Warmup,
		"interval":  *small.Interval,
	}
	for k, v := range extra {
		p[k] = v
	}
	return p
}

func decodeFrames(t *testing.T, body []byte) (ivs []wire.StreamFrame, terminal wire.StreamFrame) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sawTerminal := false
	for sc.Scan() {
		var f wire.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad frame %q: %v", sc.Text(), err)
		}
		if sawTerminal {
			t.Fatalf("frame after the terminal frame: %q", sc.Text())
		}
		switch f.Type {
		case wire.FrameInterval:
			ivs = append(ivs, f)
		case wire.FrameGap:
			t.Fatalf("gap frame (%d dropped) in a run small enough to never lag", f.Dropped)
		case wire.FrameResult, wire.FrameError:
			terminal = f
			sawTerminal = true
		default:
			t.Fatalf("unknown frame type %q", f.Type)
		}
	}
	if !sawTerminal {
		t.Fatal("stream ended without a terminal frame")
	}
	return ivs, terminal
}

// TestStreamRun drives the acceptance contract end to end: a streamed
// POST /v1/runs emits at least one interval frame per control interval
// and a result frame byte-identical to the non-streamed body, and the
// identical follow-up request answers X-Cache: hit.
func TestStreamRun(t *testing.T) {
	_, srv := newServer(t, service.Options{})

	resp := postJSON(t, srv.URL+"/v1/runs", streamPayload(nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream run: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	if xc := resp.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("first stream X-Cache = %q, want miss", xc)
	}
	ivs, terminal := decodeFrames(t, readBody(t, resp))
	if min := int(small.Window / *small.Interval); len(ivs) < min {
		t.Errorf("got %d interval frames, want at least one per control interval (%d)", len(ivs), min)
	}
	if terminal.Type != wire.FrameResult || terminal.Cache != "miss" {
		t.Fatalf("terminal frame: %+v", terminal)
	}

	// The non-streamed follow-up must be a cache hit with exactly the
	// bytes the stream's result frame carried.
	plain := postJSON(t, srv.URL+"/v1/runs", small)
	if xc := plain.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("follow-up X-Cache = %q, want hit", xc)
	}
	body := readBody(t, plain)
	if !bytes.Equal(bytes.TrimSuffix(body, []byte("\n")), terminal.Result) {
		t.Error("follow-up body differs from the stream's result frame")
	}

	// A repeated streamed request is a hit frame with no intervals.
	again := postJSON(t, srv.URL+"/v1/runs", streamPayload(nil))
	if xc := again.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("repeat stream X-Cache = %q, want hit", xc)
	}
	ivs2, terminal2 := decodeFrames(t, readBody(t, again))
	if len(ivs2) != 0 || terminal2.Cache != "hit" {
		t.Errorf("repeat stream: %d interval frames, cache %q", len(ivs2), terminal2.Cache)
	}
	if !bytes.Equal(terminal.Result, terminal2.Result) {
		t.Error("repeat stream result differs")
	}
}

// TestStreamAsyncEvents queues a stream job and reads its /events feed:
// interval frames interleave with progress snapshots until terminal.
func TestStreamAsyncEvents(t *testing.T) {
	m, srv := newServer(t, service.Options{})

	resp := postJSON(t, srv.URL+"/v1/runs", streamPayload(map[string]any{"async": true}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async stream submit: status %d", resp.StatusCode)
	}
	var snap service.Snapshot
	if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Kind != "stream" {
		t.Errorf("job kind %q, want stream", snap.Kind)
	}

	events, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	intervalLines, snapshotLines := 0, 0
	sc := bufio.NewScanner(events.Body)
	var last service.Snapshot
	for sc.Scan() {
		var f wire.StreamFrame
		if json.Unmarshal(sc.Bytes(), &f) == nil && f.Type == wire.FrameInterval {
			intervalLines++
			continue
		}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("unparseable event line %q: %v", sc.Text(), err)
		}
		snapshotLines++
	}
	events.Body.Close()
	if intervalLines == 0 || snapshotLines == 0 {
		t.Errorf("events feed: %d interval lines, %d snapshots; want both", intervalLines, snapshotLines)
	}
	if last.State != service.Done {
		t.Errorf("final event state %q", last.State)
	}
	if _, ok := m.Job(snap.ID); !ok {
		t.Fatal("job vanished")
	}
}

// TestStreamCancelsOnlyOnDeparture: a streamed run's job is cancelled
// when its client leaves mid-stream, and never after the terminal frame
// of a stream that ran to the end.
func TestStreamCancelsOnlyOnDeparture(t *testing.T) {
	m, srv := newServer(t, service.Options{})
	const cancelled = "mcd_jobs_cancelled_total"

	decodeFrames(t, readBody(t, postJSON(t, srv.URL+"/v1/runs", streamPayload(nil))))
	if n := scrapeCounter(t, srv.URL, cancelled); n != 0 {
		t.Fatalf("%s = %v after a completed stream, want 0", cancelled, n)
	}

	// A window far longer than the test waits: only the departure can
	// end this job early.
	body, err := json.Marshal(streamPayload(map[string]any{"window": 50_000_000}))
	if err != nil {
		t.Fatal(err)
	}
	ctx, leave := context.WithCancel(context.Background())
	defer leave()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bufio.NewScanner(resp.Body).Scan() {
		t.Fatal("stream ended before its first frame")
	}
	leave()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		jobs := m.Jobs()
		if len(jobs) > 0 && jobs[0].Terminal() {
			if jobs[0].State != service.Failed {
				t.Fatalf("departed stream's job ended %s, want failed", jobs[0].State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("departed stream's job still running after 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := scrapeCounter(t, srv.URL, cancelled); n != 1 {
		t.Errorf("%s = %v after one departed stream, want 1", cancelled, n)
	}
}

// TestStreamRejectsBatch pins the 400 on stream+batch.
func TestStreamRejectsBatch(t *testing.T) {
	_, srv := newServer(t, service.Options{})
	resp := postJSON(t, srv.URL+"/v1/runs", map[string]any{
		"stream": true,
		"runs":   []wire.RunRequest{small},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("stream batch: status %d, want 400", resp.StatusCode)
	}
	readBody(t, resp)
}
