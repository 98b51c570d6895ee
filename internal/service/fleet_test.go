package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcd/internal/journal"
	"mcd/internal/wire"
)

// TestFleetGate429 pins the fleet-wide backpressure surface: when the
// configured admission gate reports saturation, a submit is rejected
// before taking a queue slot — 429, reason "fleet", with a Retry-After
// estimate — and admitted again the moment the gate clears.
func TestFleetGate429(t *testing.T) {
	saturated := true
	m := New(Options{Runners: 1, Gate: func() error {
		if saturated {
			return ErrFleet
		}
		return nil
	}})
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	req := wire.RunRequest{Benchmark: "adpcm", Config: "attack-decay", Window: 8_000, Warmup: wire.U64(4_000)}
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Reason     string `json:"reason"`
		RetryAfter int    `json:"retry_after_seconds"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: status %d, want 429", resp.StatusCode)
	}
	if derr != nil {
		t.Fatal(derr)
	}
	if body.Reason != "fleet" {
		t.Fatalf("rejection reason %q, want fleet", body.Reason)
	}
	if resp.Header.Get("Retry-After") == "" || body.RetryAfter < 1 {
		t.Fatalf("429 without a sane Retry-After: header %q, body %d",
			resp.Header.Get("Retry-After"), body.RetryAfter)
	}

	saturated = false
	resp2, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-drain submit: status %d, want 200", resp2.StatusCode)
	}

	var scrape strings.Builder
	if err := m.met.reg.Render(&scrape); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scrape.String(), `mcd_jobs_rejected_total{reason="fleet"} 1`) {
		t.Fatalf("scrape missing fleet rejection counter:\n%s", scrape.String())
	}
}

// TestJournalHoldsNoResults pins the journal's scope: a finished job
// leaves only its submission and state transitions behind, even on a
// manager with no result store, and a restart over that journal neither
// re-queues the job nor restores it by ID.
func TestJournalHoldsNoResults(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "jobs.ndjson")
	jnl, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	m := New(Options{Runners: 1, Journal: jnl})
	req := wire.RunRequest{Benchmark: "adpcm", Config: "attack-decay", Window: 8_000, Warmup: wire.U64(4_000)}
	j, err := m.submitRun("", resolve(t, req))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.waitResult(context.Background()); err != nil {
		t.Fatal(err)
	}
	id := j.id
	jnl.Close() // hard stop after completion, as SIGKILL would
	m.Close()

	b, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), `"t":"result"`) {
		t.Fatalf("journal holds a result record:\n%s", b)
	}
	jnl2, err := journal.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if live := jnl2.Pending(); len(live) != 0 {
		t.Fatalf("finished job replayed as live: %+v", live)
	}
	m2 := New(Options{Runners: 1, Journal: jnl2})
	defer m2.Close()
	if _, ok := m2.job(id); ok {
		t.Fatalf("finished job %s is back in the table after restart", id)
	}
}
