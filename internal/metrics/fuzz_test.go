package metrics

import (
	"strings"
	"testing"
)

// unescapeLabel inverts escapeLabel; ok is false on a dangling or
// unknown escape.
func unescapeLabel(s string) (string, bool) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		if i++; i == len(s) {
			return "", false
		}
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		case '"':
			b.WriteByte('"')
		default:
			return "", false
		}
	}
	return b.String(), true
}

// labelValue extracts the escaped value of label from one sample line:
// from after `label="` to the first unescaped quote.
func labelValue(line, label string) (string, bool) {
	i := strings.Index(line, label+`="`)
	if i < 0 {
		return "", false
	}
	rest := line[i+len(label)+2:]
	for j := 0; j < len(rest); j++ {
		switch rest[j] {
		case '\\':
			j++
		case '"':
			return rest[:j], true
		}
	}
	return "", false
}

// FuzzRender renders per-worker families whose label value is an
// arbitrary string — worker IDs arrive from POST /v1/fabric/register and
// become label values on the coordinator's /metrics. The scrape stays
// one line per HELP, TYPE and sample, and every sample's label value
// unescapes back to the worker ID.
func FuzzRender(f *testing.F) {
	for _, s := range []string{
		"w1", "worker-127.0.0.1:8102", "", `a"b`, `a\b`, `a\nb`, "line\nbreak",
		"\\\"\n", "ü\x00\r\t", `}{le="1"} 5`, "# HELP x y",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, id string) {
		r := New()
		r.GaugeVecFunc("fuzz_worker_busy", "In-flight dispatches per worker.", "worker",
			func() map[string]float64 { return map[string]float64{id: 2} })
		r.CounterVec("fuzz_executes_total", "Executes per worker.", "worker").With(id).Inc()
		r.HistogramVec("fuzz_dispatch_seconds", "Dispatch latency per worker.", "worker", []float64{1}).With(id).Observe(0.5)
		var b strings.Builder
		if err := r.Render(&b); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
		// Per family HELP and TYPE; samples: gauge 1, counter 1,
		// histogram 2 buckets + sum + count.
		if want := 3*2 + 1 + 1 + 4; len(lines) != want {
			t.Fatalf("scrape has %d lines, want %d:\n%s", len(lines), want, b.String())
		}
		for _, line := range lines {
			if strings.HasPrefix(line, "# ") {
				continue
			}
			esc, ok := labelValue(line, "worker")
			if !ok {
				// Plain families drop an empty label value entirely.
				if id == "" && !strings.Contains(line, "{") {
					continue
				}
				t.Fatalf("sample line %q carries no worker label", line)
			}
			got, ok := unescapeLabel(esc)
			if !ok || got != id {
				t.Fatalf("sample line %q: label value %q unescapes to %q (ok %v), want %q", line, esc, got, ok, id)
			}
		}
	})
}
