package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"mcd/internal/wire"
)

// FuzzJournalReplay opens arbitrary bytes as a journal file. Open never
// panics, the replayed live set holds unique, non-empty IDs no higher
// than LastID, and reopening the file Open just compacted yields the
// same live set and the same LastID.
func FuzzJournalReplay(f *testing.F) {
	line := func(rec record) []byte {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return append(b, '\n')
	}
	batch := submitN("j000009", KindBatch)
	batch.Run, batch.Runs = nil, []wire.RunRequest{{Benchmark: "adpcm"}}
	exp := Submit{ID: "j000001", Kind: KindExperiment, Client: "alice",
		Experiment: &wire.ExperimentRequest{Name: "table6", Quick: true, Benchmarks: []string{"adpcm"}}}
	run, stream := submitN("j000001", KindRun), submitN("j000003", KindStream)
	var history []byte
	for _, rec := range []record{
		{T: "submit", Job: &run},
		{T: "submit", Job: &stream},
		{T: "state", ID: "j000001", State: "running"},
		{T: "state", ID: "j000001", State: "done"},
		{T: "state", ID: "j000003", State: "running"},
	} {
		history = append(history, line(rec)...)
	}
	f.Add(history)
	f.Add(append(line(record{T: "submit", Job: &run}), `{"t":"state","id":"j0000`...))
	f.Add(append(line(record{T: "submit", Job: &batch}), line(record{T: "submit", Job: &exp})...))
	f.Add(append(line(record{T: "submit", Job: &run}),
		`{"t":"result","id":"j000001","body":"eyJiZW5jaG1hcmsiOiJhZHBjbSJ9Cg=="}`+"\n"+
			`{"t":"state","id":"j000001","state":"done"}`+"\n"...))
	f.Add([]byte{})
	f.Add(line(record{T: "mark", ID: "j000007"}))
	f.Add(append(line(record{T: "mark", ID: "j000007"}), line(record{T: "submit", Job: &run})...))
	f.Add(append(line(record{T: "submit", Job: &batch}), `{"t":"mark","id":""}`+"\n"+`{"t":"mark","id":"j0000010"}`+"\n"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "jobs.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		first, last := j.Pending(), j.LastID()
		j.Close()
		seen := map[string]bool{}
		for _, s := range first {
			if s.ID == "" || seen[s.ID] {
				t.Fatalf("Pending() holds an empty or repeated ID %q", s.ID)
			}
			if IDLess(last, s.ID) {
				t.Fatalf("Pending() holds ID %q above LastID %q", s.ID, last)
			}
			seen[s.ID] = true
		}
		j2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer j2.Close()
		// Compare encodings: empty and absent optional fields both
		// compact to an omitted key, so the journal's own encoding is
		// the identity that survives a rewrite.
		a, _ := json.Marshal(first)
		b, _ := json.Marshal(j2.Pending())
		if !bytes.Equal(a, b) {
			t.Fatalf("reopened Pending() differs:\nfirst:  %s\nreopen: %s", a, b)
		}
		if got := j2.LastID(); got != last {
			t.Fatalf("reopened LastID %q, first %q", got, last)
		}
	})
}
