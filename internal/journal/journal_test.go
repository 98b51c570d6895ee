package journal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mcd/internal/wire"
)

func testPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "jobs.ndjson")
}

func submitN(id, kind string) Submit {
	return Submit{ID: id, Kind: kind, Run: &wire.RunRequest{Benchmark: "adpcm", Config: "attack-decay"}}
}

func TestReplayRequeuesOnlyLiveJobs(t *testing.T) {
	path := testPath(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// j1 completes, j2 fails, j3 is running at crash, j4 still queued.
	for _, s := range []Submit{submitN("j000001", KindRun), submitN("j000002", KindRun), submitN("j000003", KindStream), submitN("j000004", KindRun)} {
		if err := j.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	j.State("j000001", "running")
	j.State("j000001", "done")
	j.State("j000002", "running")
	j.State("j000002", "failed")
	j.State("j000003", "running")
	j.Close() // crash: no more records

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	pending := j2.Pending()
	if len(pending) != 2 || pending[0].ID != "j000003" || pending[1].ID != "j000004" {
		t.Fatalf("pending = %+v, want j000003 (running) and j000004 (queued)", pending)
	}
	if pending[0].Kind != KindStream || pending[0].Run == nil || pending[0].Run.Benchmark != "adpcm" {
		t.Fatalf("replayed submit lost its request: %+v", pending[0])
	}
}

func TestOpenCompactsTerminalHistory(t *testing.T) {
	path := testPath(t)
	j, _ := Open(path)
	j.Submit(submitN("j000001", KindRun))
	j.State("j000001", "done")
	j.Submit(submitN("j000002", KindRun))
	j.Close()

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	if strings.Contains(s, "j000001") {
		t.Errorf("compaction kept terminal job: %s", s)
	}
	if !strings.Contains(s, "j000002") || strings.Count(s, "\n") != 1 {
		t.Errorf("compacted log should be exactly the live submit record: %q", s)
	}
}

func TestTornTrailingLineTolerated(t *testing.T) {
	path := testPath(t)
	j, _ := Open(path)
	j.Submit(submitN("j000001", KindRun))
	j.Submit(submitN("j000002", KindRun))
	j.Close()
	// Simulate a crash mid-append: a partial record with no newline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"state","id":"j0000`)
	f.Close()

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := len(j2.Pending()); got != 2 {
		t.Fatalf("pending = %d jobs, want both despite the torn line", got)
	}
}

func TestCompactAndShouldCompact(t *testing.T) {
	path := testPath(t)
	j, _ := Open(path)
	defer j.Close()
	live := submitN("j000009", KindBatch)
	live.Runs = []wire.RunRequest{{Benchmark: "adpcm"}}
	live.Run = nil
	j.Submit(live)
	j.Submit(submitN("j000010", KindRun))
	j.State("j000010", "done")
	// CompactEvery terminal records in all (j000010's included) trip the
	// rewrite; the flood's junk ID never had a submit, so its terminal
	// record stays to end a submit that may still land.
	for i := 1; i < CompactEvery; i++ {
		j.State("jx", "done")
	}
	b, _ := os.ReadFile(path)
	want := []string{
		`{"t":"submit","job":{"id":"j000009","kind":"batch","runs":[{"benchmark":"adpcm"}]}}`,
		`{"t":"state","id":"jx","state":"done"}`,
		`{"t":"mark","id":"j000010"}`,
	}
	if got := string(b); got != strings.Join(want, "\n")+"\n" {
		t.Errorf("compacted log = %q", got)
	}
	// The journal keeps accepting appends after compaction, and a submit
	// for the ended junk ID never becomes live.
	if err := j.State("j000009", "running"); err != nil {
		t.Fatal(err)
	}
	j.Submit(submitN("jx", KindRun))
	if p := j.Pending(); len(p) != 1 || p[0].ID != "j000009" {
		t.Fatalf("Pending() = %+v, want only j000009", p)
	}
}

// TestConcurrentAppendsAgreeWithReplay appends from several goroutines
// at once, as the service's submitters and runners do, with enough
// terminal records to trip compactions mid-flight. Half the jobs end
// before their submit lands; every fourth is left live. The live set
// in memory equals a fresh Open's, and holds exactly the unended jobs.
func TestConcurrentAppendsAgreeWithReplay(t *testing.T) {
	path := testPath(t)
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	const writers, jobs = 4, CompactEvery / 2
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				id := fmt.Sprintf("j%06d", 1+w*jobs+i)
				steps := []func() error{
					func() error { return j.Submit(submitN(id, KindRun)) },
					func() error { return j.State(id, "running") },
					func() error { return j.State(id, "done") },
				}
				switch {
				case i%4 == 0:
					steps = steps[:2] // still running
				case i%2 == 1:
					steps[0], steps[2] = steps[2], steps[0] // ended before its submit landed
				}
				for _, step := range steps {
					if err := step(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	live := j.Pending()
	if len(live) != writers*jobs/4 {
		t.Errorf("%d live jobs, want %d", len(live), writers*jobs/4)
	}
	for _, s := range live {
		if n, _ := strconv.Atoi(s.ID[1:]); (n-1)%jobs%4 != 0 {
			t.Errorf("ended job %s is live", s.ID)
		}
	}
	j.Close()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if got := j2.Pending(); !reflect.DeepEqual(got, live) {
		t.Errorf("reopened live set differs:\nin memory: %+v\nreopened:  %+v", live, got)
	}
}

func TestExperimentRoundTrip(t *testing.T) {
	path := testPath(t)
	j, _ := Open(path)
	exp := Submit{ID: "j000001", Kind: KindExperiment, Client: "alice",
		Experiment: &wire.ExperimentRequest{Name: "table6", Quick: true, Benchmarks: []string{"adpcm"}}}
	j.Submit(exp)
	j.Close()

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	p := j2.Pending()
	if len(p) != 1 || p[0].Experiment == nil || p[0].Experiment.Name != "table6" || p[0].Client != "alice" {
		t.Fatalf("experiment submit did not round-trip: %+v", p)
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if err := j.Submit(Submit{ID: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := j.State("x", "done"); err != nil {
		t.Fatal(err)
	}
	if j.Pending() != nil || j.LastID() != "" || j.Close() != nil {
		t.Fatal("nil journal misbehaved")
	}
}

func TestClosedJournalRefusesAppends(t *testing.T) {
	j, _ := Open(testPath(t))
	j.Close()
	if err := j.Submit(submitN("j000001", KindRun)); err == nil {
		t.Fatal("append after Close succeeded")
	}
}

// TestResultRoundTrip pins compatibility with logs written when the
// journal still carried result records: a log holding a "result" line
// opens without error, the finished job it belongs to is not pending,
// and the compaction Open runs drops the line along with the job's
// terminal history.
func TestResultRoundTrip(t *testing.T) {
	path := testPath(t)
	lines := []string{
		`{"t":"submit","job":{"id":"j000001","kind":"run","run":{"benchmark":"adpcm","config":"attack-decay"}}}`,
		`{"t":"submit","job":{"id":"j000002","kind":"run","run":{"benchmark":"adpcm","config":"attack-decay"}}}`,
		`{"t":"state","id":"j000001","state":"running"}`,
		`{"t":"result","id":"j000001","body":"eyJiZW5jaG1hcmsiOiJhZHBjbSJ9Cg=="}`,
		`{"t":"state","id":"j000001","state":"done"}`,
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if live := j.Pending(); len(live) != 1 || live[0].ID != "j000002" {
		t.Fatalf("Pending() = %+v, want only j000002", live)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s := string(b); strings.Contains(s, `"result"`) || strings.Contains(s, "j000001") || strings.Count(s, "\n") != 1 {
		t.Fatalf("compacted log kept the result record or its job: %q", s)
	}
}
