// Package journal is the persistent job log behind crash-safe
// mcdserve: every submitted job's request and every state transition is
// appended, fsynced, to an NDJSON file, so a restarted process can
// replay the log and re-queue whatever was queued or running when the
// previous one died. Determinism makes this cheap — a journaled job is
// just its wire-encoded request, and rerunning it yields byte-identical
// results (completed cells hit the result cache, so replay rarely even
// simulates).
//
// Records are one JSON object per line:
//
//	{"t":"submit","job":{"id":"j000001","kind":"run","client":"a","run":{...}}}
//	{"t":"state","id":"j000001","state":"running"}
//	{"t":"mark","id":"j000007"}
//
// A mark record keeps the highest job ID the log ever held (LastID)
// through a compaction that drops that job.
//
// Result bytes are never journaled: their one durable home is the
// content-addressed result cache, where a resubmitted request finds
// them when the cache has a disk tier.
//
// Append-only with per-record fsync means a crash can lose at most the
// record being written; a torn trailing line is tolerated on replay.
// Compaction — at open, and whenever the caller asks after enough
// terminal jobs accumulate — rewrites the file to just the live jobs'
// submit records with the same atomic temp-file + rename + directory
// fsync discipline the result cache's disk tier uses, so the log is
// bounded by the live job set, not by server uptime.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"mcd/internal/wire"
)

// Job kinds a Submit record can carry. They mirror the service's
// submission entry points; the journal only stores and replays them.
const (
	KindRun        = "run"
	KindStream     = "stream"
	KindBatch      = "batch"
	KindExperiment = "experiment"
)

// Submit is the replayable description of one job: everything the
// service needs to reconstruct and re-queue it after a restart.
// Exactly one of Run, Runs and Experiment is set, matching Kind.
type Submit struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Client string `json:"client,omitempty"`

	Run        *wire.RunRequest        `json:"run,omitempty"`
	Runs       []wire.RunRequest       `json:"runs,omitempty"`
	Experiment *wire.ExperimentRequest `json:"experiment,omitempty"`
}

// record is one journal line.
type record struct {
	T     string  `json:"t"`
	Job   *Submit `json:"job,omitempty"`   // t=submit
	ID    string  `json:"id,omitempty"`    // t=state, t=mark
	State string  `json:"state,omitempty"` // t=state
}

// IDLess orders job IDs by (length, string): the submission order of
// the service's zero-padded sequence IDs, even past a million jobs.
func IDLess(x, y string) bool {
	if len(x) != len(y) {
		return len(x) < len(y)
	}
	return x < y
}

// Terminal states as the journal understands them: a job whose last
// state record is one of these is never replayed and is dropped at the
// next compaction. The strings match service.State values, but the
// journal treats them opaquely except for this test.
var terminalStates = map[string]bool{"done": true, "failed": true}

func isTerminal(state string) bool { return terminalStates[state] }

// Journal is an open job log. All methods are safe for concurrent use.
// A nil *Journal is valid everywhere and records nothing, so the
// service needs no conditionals around its append calls.
type Journal struct {
	path string

	mu       sync.Mutex
	f        *os.File
	pending  []Submit // live jobs found at Open, submission order
	last     string   // highest job ID the log ever held (IDLess order)
	terminal int      // terminal state records appended since last compaction
	closed   bool
}

// CompactEvery is how many terminal-state records may accumulate before
// ShouldCompact suggests a rewrite: large enough that compaction cost
// is amortized over many jobs, small enough that the log stays within a
// few hundred records of the live set.
const CompactEvery = 256

// Open reads (or creates) the journal at path, replays it, compacts it
// down to the live jobs' submit records, and returns it ready for
// appends. The live set is available from Pending, in original
// submission order.
func Open(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	pending, last, err := replay(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{path: path, pending: pending, last: last}
	// Compact immediately: the replayed file may be mostly terminal
	// history, and rewriting now means the new process starts from a log
	// that is exactly its live set.
	if err := j.rewrite(pending); err != nil {
		return nil, err
	}
	return j, nil
}

// replay reads every well-formed record and reduces them to the live
// submits — jobs with no terminal state record, in submission order —
// and the highest job ID any submit or mark record names.
// Records of any other type (such as the result records older logs
// carry) are ignored and vanish at the compaction Open runs. A torn trailing
// line (the crash interrupted an append) is skipped; a malformed line
// elsewhere is skipped too rather than holding the whole log hostage —
// the worst case is forgetting one job, never serving a corrupted one.
func replay(path string) (live []Submit, last string, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, "", nil
	}
	if err != nil {
		return nil, "", fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	var (
		order []string
		subs  = map[string]Submit{}
		state = map[string]string{}
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), maxRecordBytes)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec record
		if json.Unmarshal(line, &rec) != nil {
			continue
		}
		switch rec.T {
		case "submit":
			if rec.Job == nil || rec.Job.ID == "" {
				continue
			}
			if _, seen := subs[rec.Job.ID]; !seen {
				order = append(order, rec.Job.ID)
			}
			subs[rec.Job.ID] = *rec.Job
			if IDLess(last, rec.Job.ID) {
				last = rec.Job.ID
			}
		case "mark":
			if IDLess(last, rec.ID) {
				last = rec.ID
			}
		case "state":
			if isTerminal(rec.State) {
				state[rec.ID] = rec.State
			}
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return nil, "", fmt.Errorf("journal: %w", err)
	}
	for _, id := range order {
		if state[id] == "" {
			live = append(live, subs[id])
		}
	}
	sort.SliceStable(live, func(a, b int) bool { return IDLess(live[a].ID, live[b].ID) })
	return live, last, nil
}

// maxRecordBytes bounds one journal line on replay. The largest
// legitimate record is a full batch submit, which the service bounds
// well under its 1 MiB request-body cap; lines beyond this are treated
// as corruption.
const maxRecordBytes = 4 << 20

// Pending returns the jobs that were queued or running when the journal
// was last opened — the replay set, in submission order. The slice is
// the journal's own; callers must not mutate it.
func (j *Journal) Pending() []Submit {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pending
}

// LastID returns the highest job ID the log ever held, across
// compactions and restarts ("" for none).
func (j *Journal) LastID() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.last
}

// Submit appends a job's submit record.
func (j *Journal) Submit(s Submit) error {
	return j.append(record{T: "submit", Job: &s})
}

// State appends a state transition for job id.
func (j *Journal) State(id, state string) error {
	if j == nil {
		return nil
	}
	err := j.append(record{T: "state", ID: id, State: state})
	if err == nil && isTerminal(state) {
		j.mu.Lock()
		j.terminal++
		j.mu.Unlock()
	}
	return err
}

// ShouldCompact reports whether enough terminal history has accumulated
// since the last compaction to be worth rewriting. The caller (which
// owns the live job set) follows up with Compact.
func (j *Journal) ShouldCompact() bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.terminal >= CompactEvery
}

// Compact rewrites the journal to exactly the given live jobs' submit
// records, dropping all terminal history.
func (j *Journal) Compact(live []Submit) error {
	if j == nil {
		return nil
	}
	return j.rewrite(live)
}

// append writes one NDJSON record and fsyncs it, so an acknowledged
// submission survives an immediate power cut. The file is opened lazily
// (Open compacts first, which replaces the handle anyway).
func (j *Journal) append(rec record) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	if rec.Job != nil && IDLess(j.last, rec.Job.ID) {
		j.last = rec.Job.ID
	}
	if j.f == nil {
		f, err := os.OpenFile(j.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		j.f = f
	}
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// rewrite atomically replaces the log with the given submit records,
// plus a mark record when the highest ID is not among them: temp file in
// the same directory, fsync, rename over the log, fsync
// the directory — the same discipline as the result cache's disk tier,
// so a crash mid-compaction leaves either the old complete log or the
// new one, never a mix.
func (j *Journal) rewrite(live []Submit) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, "journal-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	recs := make([]record, 0, len(live)+1)
	for i := range live {
		recs = append(recs, record{T: "submit", Job: &live[i]})
	}
	if j.last != "" && !slices.ContainsFunc(live, func(s Submit) bool { return s.ID == j.last }) {
		recs = append(recs, record{T: "mark", ID: j.last})
	}
	w := bufio.NewWriter(tmp)
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err == nil {
			_, err = w.Write(append(b, '\n'))
		}
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("journal: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	// Future appends go to the freshly compacted file.
	if j.f != nil {
		j.f.Close()
		j.f = nil
	}
	j.terminal = 0
	return nil
}

// Close releases the file handle. Further appends fail; a crash-style
// shutdown that must not write anything more uses Close alone.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.closed = true
	if j.f != nil {
		err := j.f.Close()
		j.f = nil
		return err
	}
	return nil
}
