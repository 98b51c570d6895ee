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
// The journal alone decides which jobs are live: replay folds every
// line, and every durable append, through one order-independent
// reduction, and Pending is its current result.
//
// Append-only with per-record fsync means a crash can lose at most the
// record being written; a torn trailing line is tolerated on replay.
// Compaction — at Open, and by State after every CompactEvery terminal
// records — rewrites the file to just the live set with the same atomic
// temp-file + rename + directory fsync discipline the result cache's
// disk tier uses, so the log is bounded by the live job set, not by
// server uptime.
package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
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

// Terminal states as the journal understands them: a job with one of
// these state records is never replayed and is dropped at the next
// compaction. The strings match service.State values, but the journal
// treats them opaquely except for this test.
var terminalStates = map[string]bool{"done": true, "failed": true}

func isTerminal(state string) bool { return terminalStates[state] }

// liveSet is what a log's records reduce to.
type liveSet struct {
	subs map[string]Submit // submitted jobs with no terminal record
	// ended holds the jobs with a terminal record: the terminal state
	// while the job's submit record has not landed, "" once it has.
	ended map[string]string
	last  string // highest job ID any submit or mark record names
}

// apply folds one record into the set. The result does not depend on
// record order: the service fsyncs a submit outside its queue lock, so
// a fast job's state records can land before its submit record, and a
// submit for a job that has already ended never becomes live. Records
// of any other type (such as the result records older logs carry) are
// ignored.
func (l *liveSet) apply(rec record) {
	switch rec.T {
	case "submit":
		if rec.Job == nil || rec.Job.ID == "" {
			return
		}
		id := rec.Job.ID
		l.bump(id)
		if _, ended := l.ended[id]; ended {
			l.ended[id] = ""
		} else {
			l.subs[id] = *rec.Job
		}
	case "mark":
		l.bump(rec.ID)
	case "state":
		if !isTerminal(rec.State) {
			return
		}
		if _, live := l.subs[rec.ID]; live {
			delete(l.subs, rec.ID)
			l.ended[rec.ID] = ""
		} else if _, ended := l.ended[rec.ID]; !ended {
			l.ended[rec.ID] = rec.State
		}
	}
}

func (l *liveSet) bump(id string) {
	if IDLess(l.last, id) {
		l.last = id
	}
}

// Journal is an open job log. All methods are safe for concurrent use.
// A nil *Journal is valid everywhere and records nothing, so the
// service needs no conditionals around its append calls.
type Journal struct {
	path string

	mu       sync.Mutex
	f        *os.File
	live     liveSet
	terminal int // terminal state records appended since last compaction
	closed   bool
}

// CompactEvery is how many terminal-state records State appends before
// it rewrites the log: large enough that compaction cost is amortized
// over many jobs, small enough that the log stays within a few hundred
// records of the live set.
const CompactEvery = 256

// Open reads (or creates) the journal at path, replays it, compacts it
// down to the live jobs' submit records, and returns it ready for
// appends. The live set is available from Pending.
func Open(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{path: path, live: liveSet{subs: map[string]Submit{}, ended: map[string]string{}}}
	if err := j.replay(); err != nil {
		return nil, err
	}
	// A terminal record whose submit never landed outlived the process
	// that was writing that submit; no later submit can need it.
	clear(j.live.ended)
	// Compact immediately: the replayed file may be mostly terminal
	// history, and rewriting now means the new process starts from a log
	// that is exactly its live set. j is not shared yet, so no lock.
	if err := j.compactLocked(); err != nil {
		return nil, err
	}
	return j, nil
}

// replay folds every well-formed record of the file into the live set.
// A torn trailing line (the crash interrupted an append) is skipped; a
// malformed line elsewhere is skipped too rather than holding the whole
// log hostage — the worst case is forgetting one job, never serving a
// corrupted one.
func (j *Journal) replay() error {
	f, err := os.Open(j.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), maxRecordBytes)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) == nil {
			j.live.apply(rec)
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// maxRecordBytes bounds one journal line on replay. The largest
// legitimate record is a full batch submit, which the service bounds
// well under its 1 MiB request-body cap; lines beyond this are treated
// as corruption.
const maxRecordBytes = 4 << 20

// Pending returns the live jobs — submitted, with no terminal state
// record — in submission order. When Open returns it is the replay set:
// the jobs that were queued or running when the log was last written.
func (j *Journal) Pending() []Submit {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pendingLocked()
}

func (j *Journal) pendingLocked() []Submit {
	live := slices.Collect(maps.Values(j.live.subs))
	sort.Slice(live, func(a, b int) bool { return IDLess(live[a].ID, live[b].ID) })
	return live
}

// LastID returns the highest job ID the log ever held, across
// compactions and restarts ("" for none).
func (j *Journal) LastID() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.live.last
}

// Submit appends a job's submit record.
func (j *Journal) Submit(s Submit) error {
	return j.append(record{T: "submit", Job: &s})
}

// State appends a state transition for job id; every CompactEvery-th
// terminal one then rewrites the log to the live set.
func (j *Journal) State(id, state string) error {
	return j.append(record{T: "state", ID: id, State: state})
}

// append writes one NDJSON record and fsyncs it, so an acknowledged
// submission survives an immediate power cut, then folds it into the
// live set. The file is opened lazily (compaction replaces the handle).
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
	j.live.apply(rec)
	if rec.T == "state" && isTerminal(rec.State) {
		if j.terminal++; j.terminal >= CompactEvery {
			return j.compactLocked()
		}
	}
	return nil
}

// compactLocked atomically replaces the log with the live set: the
// live submit records, the terminal records still waiting for their
// submit, and a mark record when the highest ID is not a live job's.
// Temp file in the same directory, fsync, rename over the log, fsync
// the directory — the same discipline as the result cache's disk tier,
// so a crash mid-compaction leaves either the old complete log or the
// new one, never a mix. Callers hold j.mu.
func (j *Journal) compactLocked() error {
	dir := filepath.Dir(j.path)
	tmp, err := os.CreateTemp(dir, "journal-*")
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	live := j.pendingLocked()
	recs := make([]record, 0, len(live)+len(j.live.ended)+1)
	for i := range live {
		recs = append(recs, record{T: "submit", Job: &live[i]})
	}
	for _, id := range slices.Sorted(maps.Keys(j.live.ended)) {
		if state := j.live.ended[id]; state != "" {
			recs = append(recs, record{T: "state", ID: id, State: state})
		}
	}
	if _, ok := j.live.subs[j.live.last]; j.live.last != "" && !ok {
		recs = append(recs, record{T: "mark", ID: j.live.last})
	}
	// fail abandons the temp file; the old log stays in place.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("journal: %w", err)
	}
	w := bufio.NewWriter(tmp)
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err == nil {
			_, err = w.Write(append(b, '\n'))
		}
		if err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		return fail(err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	// The ended jobs whose submit had landed left the log with it.
	maps.DeleteFunc(j.live.ended, func(_, state string) bool { return state == "" })
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
