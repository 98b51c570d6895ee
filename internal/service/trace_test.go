package service

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"mcd/internal/trace"
	"mcd/internal/wire"
)

// chromeDoc mirrors the Chrome trace-event JSON envelope the trace
// endpoints serve — parsed back in tests exactly the way Perfetto
// would read it.
type chromeDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func getChrome(t *testing.T, url string) chromeDoc {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var doc chromeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace body is not valid JSON: %v\n%s", err, body)
	}
	return doc
}

// TestJobTraceChromeExport runs a dynamic-controller job on a traced
// server and checks the exported flight recording: one span per
// lifecycle phase, a per-interval controller decision audit with
// per-domain arguments, and a valid process-wide /debug/trace ring.
func TestJobTraceChromeExport(t *testing.T) {
	_, srv := newServer(t, Options{Trace: trace.NewRing(1024)})

	resp := postJSON(t, srv.URL+"/v1/runs", map[string]any{
		"benchmark": "adpcm", "config": "dynamic",
		"window": 8_000, "warmup": 4_000, "interval": 250,
		"async": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var snap Snapshot
	if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	waitResult(t, srv.URL, snap.ID)

	doc := getChrome(t, srv.URL+"/v1/jobs/"+snap.ID+"/trace")
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit %q, want ms", doc.DisplayTimeUnit)
	}

	spans := map[string]int{}
	decisions := 0
	instants := map[string]int{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			spans[ev.Name]++
			if ev.Dur < 1 {
				t.Errorf("span %q has dur %v < 1µs (invisible in Perfetto)", ev.Name, ev.Dur)
			}
		case "i":
			if ev.Name == "decision" {
				decisions++
				for _, arg := range []string{"frontend_mhz", "integer_mhz", "fp_mhz", "loadstore_mhz", "integer_queue"} {
					if _, ok := ev.Args[arg]; !ok {
						t.Fatalf("decision event missing arg %q: %+v", arg, ev.Args)
					}
				}
			} else {
				instants[ev.Name]++
			}
		}
	}
	// Every lifecycle phase must appear exactly once for a single
	// cache-miss run: queue wait, store probe, the run itself, and the
	// disk persist.
	for _, phase := range []string{"queue", "probe", "run", "store"} {
		if spans[phase] != 1 {
			t.Errorf("lifecycle span %q appears %d times, want 1 (spans: %v)", phase, spans[phase], spans)
		}
	}
	if instants["submit"] != 1 || instants["done"] != 1 {
		t.Errorf("want one submit and one done instant, got %v", instants)
	}
	// 8000 ps window at 250 ps intervals → 32 measured boundaries, and
	// the audit records every one of them.
	if decisions < 16 {
		t.Errorf("decision audit has %d events, want the full per-interval record (≥16)", decisions)
	}
	// The probe span reports the tier it resolved at; a first-ever run
	// is a miss.
	probeTier := ""
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "probe" {
			probeTier, _ = ev.Args["cache_tier"].(string)
		}
	}
	if probeTier != "miss" {
		t.Errorf("probe span cache_tier = %q, want miss", probeTier)
	}

	// The process-wide ring holds the same lifecycle; its export parses
	// and carries at least the job's records.
	ring := getChrome(t, srv.URL+"/debug/trace")
	if len(ring.TraceEvents) < len(doc.TraceEvents) {
		t.Errorf("/debug/trace has %d events, job trace %d — ring should hold at least the one job",
			len(ring.TraceEvents), len(doc.TraceEvents))
	}
}

// TestTraceDisabledIs404 checks that an untraced server rejects both
// trace endpoints with an error naming the -trace flag — and that an
// unknown job stays a plain not-found.
func TestTraceDisabledIs404(t *testing.T) {
	_, srv := newServer(t, Options{})

	resp := postJSON(t, srv.URL+"/v1/runs", map[string]any{
		"benchmark": "adpcm", "config": "attack-decay",
		"window": 8_000, "warmup": 4_000, "interval": 250,
		"async": true,
	})
	var snap Snapshot
	if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	waitResult(t, srv.URL, snap.ID)

	for _, path := range []string{"/v1/jobs/" + snap.ID + "/trace", "/debug/trace"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s on untraced server: status %d, want 404", path, resp.StatusCode)
		}
		if !strings.Contains(string(body), "-trace") {
			t.Errorf("GET %s error should name the -trace flag: %s", path, body)
		}
	}

	resp2, err := http.Get(srv.URL + "/v1/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp2)
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", resp2.StatusCode)
	}
}

// scrapeCounter fetches /metrics and returns the value of a
// single-valued counter line.
func scrapeCounter(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("bad metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in scrape", name)
	return 0
}

// TestEventsGapAccounting overruns the bounded per-job interval log
// with a fine-grained stream job, then reads the /events replay as a
// slow consumer would see it: an explicit gap frame whose dropped count
// equals both the log overrun and the mcd_stream_gap_frames_total
// scrape delta — the metric counts records, not frames.
func TestEventsGapAccounting(t *testing.T) {
	_, srv := newServer(t, Options{})

	before := scrapeCounter(t, srv.URL, "mcd_stream_gap_frames_total")

	// 20000 ps at 1 ps intervals → 20000 interval records against an
	// 8192-record log: 11808 dropped before any consumer connects.
	resp := postJSON(t, srv.URL+"/v1/runs", map[string]any{
		"benchmark": "adpcm", "config": "attack-decay",
		"window": 20_000, "warmup": 0, "interval": 1,
		"async": true, "stream": true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var snap Snapshot
	if err := json.Unmarshal(readBody(t, resp), &snap); err != nil {
		t.Fatal(err)
	}
	waitResult(t, srv.URL, snap.ID)

	events, err := http.Get(srv.URL + "/v1/jobs/" + snap.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()

	gapDropped, gapFrames, intervals := 0, 0, 0
	sc := bufio.NewScanner(events.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var frame wire.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch frame.Type {
		case wire.FrameGap:
			gapFrames++
			gapDropped += frame.Dropped
		case wire.FrameInterval:
			intervals++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if gapFrames != 1 {
		t.Errorf("got %d gap frames, want exactly 1 (the whole overrun reported once)", gapFrames)
	}
	const produced, retained = 20_000, 8192
	if gapDropped != produced-retained {
		t.Errorf("gap frames report %d dropped records, want %d", gapDropped, produced-retained)
	}
	if intervals != retained {
		t.Errorf("replay delivered %d interval frames, want the retained %d", intervals, retained)
	}

	after := scrapeCounter(t, srv.URL, "mcd_stream_gap_frames_total")
	if delta := int(after - before); delta != gapDropped {
		t.Errorf("mcd_stream_gap_frames_total delta %d != dropped records reported in-stream %d", delta, gapDropped)
	}
}
