package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"mcd/internal/wire"
)

// FuzzJournalReplay opens arbitrary bytes as a journal file, then runs
// a schedule of Submit and State appends on the open journal. Open never
// panics; the replayed live set holds unique, non-empty IDs no higher
// than LastID; reopening the file Open just compacted yields the same
// live set and LastID; after the schedule, Pending and LastID equal a
// fresh Open's; and a job whose terminal record landed before any
// submit of it never becomes live.
//
// Each schedule step is two bytes: an op (submit, running, done,
// failed, or a flood of CompactEvery terminal records for a junk ID,
// which trips the compaction) and a job ID index.
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
	f.Add(history, []byte{opDone, 3, opSubmit, 4})
	f.Add(append(line(record{T: "submit", Job: &run}), `{"t":"state","id":"j0000`...), []byte{opRunning, 1, opDone, 1})
	f.Add(append(line(record{T: "submit", Job: &batch}), line(record{T: "submit", Job: &exp})...), []byte{opFailed, 9})
	f.Add(append(line(record{T: "submit", Job: &run}),
		`{"t":"result","id":"j000001","body":"eyJiZW5jaG1hcmsiOiJhZHBjbSJ9Cg=="}`+"\n"+
			`{"t":"state","id":"j000001","state":"done"}`+"\n"...), []byte{opSubmit, 1})
	f.Add([]byte{}, []byte{})
	f.Add(line(record{T: "mark", ID: "j000007"}), []byte{opSubmit, 2})
	f.Add(append(line(record{T: "mark", ID: "j000007"}), line(record{T: "submit", Job: &run})...), []byte(nil))
	f.Add(append(line(record{T: "submit", Job: &batch}), `{"t":"mark","id":""}`+"\n"+`{"t":"mark","id":"j0000010"}`+"\n"...), []byte{opDone, 9})
	// A fast job's running and done records land before its submit.
	f.Add([]byte{}, []byte{opRunning, 1, opDone, 1, opSubmit, 1, opSubmit, 2})
	// An ended job waits for its submit across the compaction a flood
	// of junk terminal records trips; a live job survives it.
	f.Add(history, []byte{opSubmit, 5, opDone, 6, opFlood, 0, opSubmit, 6, opDone, 5})

	f.Fuzz(func(t *testing.T, data, schedule []byte) {
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
		assertSame(t, "reopened", j2, first, last)

		// The schedule, on the reopened journal.
		submitted := map[string]bool{} // live at Open or submitted since
		for _, s := range first {
			submitted[s.ID] = true
		}
		endedFirst := map[string]bool{} // terminal record before any submit
		flooded := false
		for i := 0; i+1 < len(schedule) && i < 2*maxScheduleOps; i += 2 {
			id := fmt.Sprintf("j%06d", 1+int(schedule[i+1])%12)
			var err error
			switch op := schedule[i] % opCount; op {
			case opSubmit:
				s := submitN(id, KindRun)
				s.Client = strconv.Itoa(i) // a resubmission differs; the last one wins
				err = j2.Submit(s)
				submitted[id] = true
			case opRunning:
				err = j2.State(id, "running")
			case opDone, opFailed:
				state := "done"
				if op == opFailed {
					state = "failed"
				}
				err = j2.State(id, state)
				if !submitted[id] {
					endedFirst[id] = true
				}
			case opFlood:
				if flooded { // one flood per schedule keeps execs fast
					continue
				}
				flooded = true
				for range CompactEvery {
					if err = j2.State("jx", "done"); err != nil {
						break
					}
				}
			}
			if err != nil {
				t.Fatalf("schedule step %d: %v", i/2, err)
			}
		}
		live, lastID := j2.Pending(), j2.LastID()
		for _, s := range live {
			if endedFirst[s.ID] {
				t.Fatalf("job %s ended before its submit landed, yet is live", s.ID)
			}
		}
		j2.Close()
		j3, err := Open(path)
		if err != nil {
			t.Fatalf("open after schedule: %v", err)
		}
		defer j3.Close()
		assertSame(t, "after the schedule", j3, live, lastID)
	})
}

// Schedule ops of FuzzJournalReplay.
const (
	opSubmit byte = iota
	opRunning
	opDone
	opFailed
	opFlood
	opCount
)

// maxScheduleOps bounds one fuzz schedule; every step fsyncs.
const maxScheduleOps = 64

// assertSame fails unless a fresh Open's live set and LastID are want
// and last. It compares encodings: empty and absent optional fields both
// compact to an omitted key, so the journal's own encoding is the
// identity that survives a rewrite.
func assertSame(t *testing.T, what string, j *Journal, want []Submit, last string) {
	t.Helper()
	a, _ := json.Marshal(want)
	b, _ := json.Marshal(j.Pending())
	if !bytes.Equal(a, b) {
		t.Fatalf("%s Pending() differs:\nwant: %s\ngot:  %s", what, a, b)
	}
	if got := j.LastID(); got != last {
		t.Fatalf("%s LastID %q, want %q", what, got, last)
	}
}
