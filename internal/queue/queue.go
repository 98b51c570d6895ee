// Package queue implements the decoupling structures of the MCD pipeline:
// the per-domain issue queues whose occupancy drives the Attack/Decay
// algorithm, the load/store queue, the reorder buffer, and the completion
// ring used for cross-domain wakeup with synchronization-window latching.
package queue

import (
	"math"

	"mcd/internal/workload"
)

// None marks an absent source operand.
const None int64 = -1

// Entry is an issue-queue entry. Producer seqs (Src1/Src2) are resolved
// against the CompletionRing at issue time; VisibleAt is the time the
// dispatched entry itself becomes visible in the consuming domain (it
// crossed from the front end through the domain-interface FIFO).
type Entry struct {
	Seq       uint64
	Class     workload.Class
	Src1      int64
	Src2      int64
	VisibleAt float64
	Addr      uint64
}

// ClassMask selects instruction classes by bit; it stands in for the
// per-pipe predicate closures the issue scan used to take, so the
// wakeup/select CAM walk makes no indirect calls (PR 5).
type ClassMask uint16

// MaskOf builds the mask accepting exactly the given classes.
func MaskOf(classes ...workload.Class) ClassMask {
	var m ClassMask
	for _, c := range classes {
		m |= 1 << c
	}
	return m
}

// Has reports whether class c is in the mask.
func (m ClassMask) Has(c workload.Class) bool { return m&(1<<c) != 0 }

// Wakeup carries one domain tick's readiness parameters: the CAM scan of
// every issue structure evaluates the same visibility rule, so the
// pipeline fills one Wakeup per tick and the queues test entries against
// it directly. Periods is indexed by producer domain and is a value
// copy — domain periods only move between ticks, never inside one, so
// the scan reads it from the stack; the pipeline refreshes it whenever a
// clock is reprogrammed. The floating-point expressions below reproduce
// pipeline.Core's cross-domain visibility rule operation-for-operation,
// which byte-identical results depend on; the scans' quiet-until bounds
// are those same values.
type Wakeup struct {
	Now          float64
	SingleClock  bool
	SyncWindowPS float64
	Periods      [4]float64 // current period of each controllable domain, ps
	Ring         *CompletionRing

	// subPS/addPS fold the per-producer-domain visibility rule into two
	// tabulated operands, refreshed by SetTick: a producer in domain p is
	// visible at done − subPS[p] + addPS[p]. Same-domain (and
	// single-clock) producers use the half-cycle guard with addPS = 0 —
	// adding zero is exact, so the value ordering is unchanged — and
	// cross-domain producers use the full producer period plus the
	// synchronization window, the exact expression pipeline.Core.xvisible
	// evaluates. Keeping the rule as data lets the CAM scan's source test
	// inline.
	subPS [4]float64
	addPS [4]float64
}

// SetTick points the wakeup context at one domain tick: the scan time,
// the consuming domain, and the folded visibility operands for the
// current period table.
func (w *Wakeup) SetTick(now float64, dom uint8) {
	w.Now = now
	for p := 0; p < 4; p++ {
		if w.SingleClock || uint8(p) == dom {
			w.subPS[p] = 0.5 * w.Periods[p]
			w.addPS[p] = 0
		} else {
			w.subPS[p] = w.Periods[p]
			w.addPS[p] = w.SyncWindowPS
		}
	}
}

// readyAt raises rt to the time producer src's result becomes visible
// in the consuming domain under the folded operands. Within a domain
// (and in the fully synchronous configuration) the completion time minus
// a half-cycle guard is the bypass point; across domains the wakeup
// broadcast launches one producer cycle early and must clear the
// synchronization window (see pipeline.Core's clocking-model
// commentary). Absent, overwritten or never-seen producers are ancient
// history and leave rt alone; producers still in flight (doneAt = +Inf)
// raise it to +Inf. The CAM scans load the wakeup parameters into locals
// once and this form inlines with every operand registerized (the
// compiler cannot otherwise prove the scans' entry writes don't alias
// the Wakeup).
func readyAt(slots []ringSlot, mask uint64, sub, add *[4]float64, rt float64, src int64) float64 {
	if src < 0 {
		return rt
	}
	s := slots[uint64(src)&mask]
	if s.meta&ringSeqMask != uint64(src) {
		return rt
	}
	p := (s.meta >> ringSeqBits) & 3 // producers are the three exec domains
	if v := s.doneAt - sub[p] + add[p]; v > rt {
		return v
	}
	return rt
}

// scanParams hoists a Wakeup's operands into values the scans keep in
// registers.
func (w *Wakeup) scanParams() (slots []ringSlot, mask uint64, sub, add [4]float64) {
	if r := w.Ring; r != nil { // entries without sources never consult it
		slots, mask = r.slots, r.mask
	}
	return slots, mask, w.subPS, w.addPS
}

// IssueQueue is a small in-order-storage, out-of-order-select queue.
type IssueQueue struct {
	entries []Entry
	cap     int
}

// NewIssueQueue returns a queue with the given capacity.
func NewIssueQueue(capacity int) *IssueQueue {
	return &IssueQueue{entries: make([]Entry, 0, capacity), cap: capacity}
}

// Reset empties the queue for a reused core, reallocating only when the
// capacity changed.
func (q *IssueQueue) Reset(capacity int) {
	if capacity != q.cap || cap(q.entries) < capacity {
		*q = *NewIssueQueue(capacity)
		return
	}
	q.entries = q.entries[:0]
}

// Len returns current occupancy; Cap the capacity; Free the open slots.
func (q *IssueQueue) Len() int  { return len(q.entries) }
func (q *IssueQueue) Cap() int  { return q.cap }
func (q *IssueQueue) Free() int { return q.cap - len(q.entries) }

// Push inserts an entry, reporting false when the queue is full.
func (q *IssueQueue) Push(e Entry) bool {
	if len(q.entries) >= q.cap {
		return false
	}
	q.entries = append(q.entries, e)
	return true
}

// Clone returns a deep copy — an independent snapshot for checkpointed
// warmup reuse.
func (q *IssueQueue) Clone() *IssueQueue {
	c := &IssueQueue{entries: make([]Entry, len(q.entries), q.cap), cap: q.cap}
	copy(c.entries, q.entries)
	return c
}

// CopyFrom restores src's exact state into the receiver, reusing its
// backing array. Both queues must share a capacity.
func (q *IssueQueue) CopyFrom(src *IssueQueue) {
	q.entries = append(q.entries[:0], src.entries...)
	q.cap = src.cap
}

// ShiftTimes adds dt to every resident entry's visibility time. The
// sampled fidelity tier calls it (on every queue) when fast-forwarding
// across a skipped interval: the pipeline is frozen, not drained, and
// shifting the in-flight timestamps along with the clock lets detail
// resume mid-steady-state instead of against a burst of stale-ready
// work. Infinity sentinels are unaffected by the addition.
func (q *IssueQueue) ShiftTimes(dt float64) {
	for i := range q.entries {
		q.entries[i].VisibleAt += dt
	}
}

// Select is one domain tick's wakeup/select CAM walk. It issues two
// pipes in one walk — ALU-class and multiplier-class from the same
// queue — removing up to max1 ready entries whose class is in c1 and up
// to max2 in c2, oldest first, appending them to out1 and out2. The class
// sets are disjoint, so each entry is willing for at most one pipe and
// the selections are exactly those of one pass per pipe; callers process
// out1 completely before out2. Every resident entry is examined, with no
// indirect calls, and compaction starts only at the first selected
// entry, so a scan that issues nothing writes nothing back.
//
// An entry is ready at Now when Now ≥ max(VisibleAt, each source's
// visibility time), which is the entry-visible and sources-visible test
// evaluated as one comparison. Select also returns the scan's quiet-until
// bound: when nothing is selected, the minimum of that maximum over the
// willing entries, i.e. the earliest time any later scan could select
// anything (+Inf when none can). The bound holds only while no readiness
// input changes: the ring, the queue's contents and the period table
// behind w. A scan that selects returns −Inf.
func (q *IssueQueue) Select(max1 int, c1 ClassMask, max2 int, c2 ClassMask, w *Wakeup, out1, out2 []Entry) ([]Entry, []Entry, float64) {
	quiet := math.Inf(1)
	if len(q.entries) == 0 || (max1 <= 0 && max2 <= 0) {
		return out1, out2, quiet
	}
	slots, rmask, subv, addv := w.scanParams()
	now := w.Now
	wr := -1
	for i := range q.entries {
		e := &q.entries[i]
		pipe := 0
		if max1 > 0 && c1.Has(e.Class) {
			pipe = 1
		} else if max2 > 0 && c2.Has(e.Class) {
			pipe = 2
		}
		if pipe != 0 {
			rt := readyAt(slots, rmask, &subv, &addv, e.VisibleAt, e.Src1)
			rt = readyAt(slots, rmask, &subv, &addv, rt, e.Src2)
			if now >= rt {
				if pipe == 1 {
					out1 = append(out1, *e)
					max1--
				} else {
					out2 = append(out2, *e)
					max2--
				}
				if wr < 0 {
					wr = i
				}
				continue
			}
			if rt < quiet {
				quiet = rt
			}
		}
		if wr >= 0 {
			q.entries[wr] = *e
			wr++
		}
	}
	if wr >= 0 {
		q.entries = q.entries[:wr]
		quiet = math.Inf(-1)
	}
	return out1, out2, quiet
}

// CompletionRing maps a dynamic instruction seq to its completion time and
// executing domain. Slots are recycled; because the ROB bounds in-flight
// distance well below the ring size, an overwritten slot can only belong
// to a much older instruction, which is by construction long complete.
//
// Each slot is 16 bytes — the seq and domain packed into one word next to
// the completion time — so the wakeup scan's lookups touch one cache line
// instead of three parallel arrays. Seqs are limited to 2⁵⁶−1, ten
// orders of magnitude beyond any simulated window.
type CompletionRing struct {
	slots []ringSlot
	mask  uint64
}

type ringSlot struct {
	meta   uint64 // seq in the low 56 bits, domain in the high 8
	doneAt float64
}

const (
	ringSeqBits = 56
	ringSeqMask = 1<<ringSeqBits - 1
)

// emptySlot reads as "ancient history": the seq field is all ones, which
// no real dispatch reaches.
var emptySlot = ringSlot{meta: math.MaxUint64, doneAt: math.Inf(-1)}

// NewCompletionRing returns a ring of the given power-of-two size.
func NewCompletionRing(size uint64) *CompletionRing {
	if size == 0 || size&(size-1) != 0 {
		panic("queue: completion ring size must be a power of two")
	}
	r := &CompletionRing{slots: make([]ringSlot, size), mask: size - 1}
	r.Reset()
	return r
}

// Reset empties the ring in place for a reused core.
func (r *CompletionRing) Reset() {
	for i := range r.slots {
		r.slots[i] = emptySlot
	}
}

// Clone returns a deep copy for checkpointed warmup reuse.
func (r *CompletionRing) Clone() *CompletionRing {
	c := &CompletionRing{slots: make([]ringSlot, len(r.slots)), mask: r.mask}
	copy(c.slots, r.slots)
	return c
}

// CopyFrom restores src's exact state into the receiver, reusing its
// backing array. Both rings must share a size.
func (r *CompletionRing) CopyFrom(src *CompletionRing) {
	copy(r.slots, src.slots)
	r.mask = src.mask
}

// ShiftTimes adds dt to every slot's completion time, preserving each
// producer's offset from the (fast-forwarded) clock. The ±Inf sentinels
// (in flight / ancient history) are unaffected by the addition.
func (r *CompletionRing) ShiftTimes(dt float64) {
	for i := range r.slots {
		r.slots[i].doneAt += dt
	}
}

// Dispatch registers seq as in flight in the given domain.
func (r *CompletionRing) Dispatch(seq uint64, domain uint8) {
	r.slots[seq&r.mask] = ringSlot{
		meta:   seq | uint64(domain)<<ringSeqBits,
		doneAt: math.Inf(1),
	}
}

// Complete records seq's completion time.
func (r *CompletionRing) Complete(seq uint64, t float64) {
	s := &r.slots[seq&r.mask]
	if s.meta&ringSeqMask == seq {
		s.doneAt = t
	}
}

// Lookup returns the completion time and domain of seq. Overwritten or
// never-seen slots return (-Inf, 0): the producer is ancient history.
func (r *CompletionRing) Lookup(seq uint64) (float64, uint8) {
	s := r.slots[seq&r.mask]
	if s.meta&ringSeqMask != seq {
		return math.Inf(-1), 0
	}
	return s.doneAt, uint8(s.meta >> ringSeqBits)
}

// ROBEntry is one reorder-buffer slot.
type ROBEntry struct {
	Seq    uint64
	DoneAt float64 // +Inf until complete
	Domain uint8
	Class  workload.Class
}

// ROB is the in-order retirement window.
type ROB struct {
	buf        []ROBEntry
	head, size int
}

// NewROB returns a reorder buffer with the given capacity.
func NewROB(capacity int) *ROB {
	return &ROB{buf: make([]ROBEntry, capacity)}
}

// Reset empties the ROB for a reused core, reallocating only when the
// capacity changed.
func (r *ROB) Reset(capacity int) {
	if capacity != len(r.buf) {
		r.buf = make([]ROBEntry, capacity)
	}
	r.head, r.size = 0, 0
}

// Len returns occupancy; Cap capacity; Free open slots.
func (r *ROB) Len() int  { return r.size }
func (r *ROB) Cap() int  { return len(r.buf) }
func (r *ROB) Free() int { return len(r.buf) - r.size }

// Clone returns a deep copy for checkpointed warmup reuse.
func (r *ROB) Clone() *ROB {
	c := &ROB{buf: make([]ROBEntry, len(r.buf)), head: r.head, size: r.size}
	copy(c.buf, r.buf)
	return c
}

// CopyFrom restores src's exact state into the receiver, reusing its
// backing array. Both ROBs must share a capacity.
func (r *ROB) CopyFrom(src *ROB) {
	copy(r.buf, src.buf)
	r.head, r.size = src.head, src.size
}

// ShiftTimes adds dt to every completion time in the buffer (stale slots
// outside the live window included — they are never read). See
// IssueQueue.ShiftTimes.
func (r *ROB) ShiftTimes(dt float64) {
	for i := range r.buf {
		r.buf[i].DoneAt += dt
	}
}

// Push appends an entry in program order, reporting false when full.
func (r *ROB) Push(e ROBEntry) bool {
	if r.size == len(r.buf) {
		return false
	}
	r.buf[(r.head+r.size)%len(r.buf)] = e
	r.size++
	return true
}

// Head returns the oldest entry, or nil when empty.
func (r *ROB) Head() *ROBEntry {
	if r.size == 0 {
		return nil
	}
	return &r.buf[r.head]
}

// Complete marks seq complete at time t. Entries are pushed with
// consecutive seqs, so the slot is head + (seq − head.Seq); when the
// seqs are not consecutive — the sampled fidelity tier's fast-forward
// leaves a seq gap between frozen in-flight entries and post-resume
// dispatches — a bounded scan finds the entry instead. Exact runs never
// take the scan, so the hot path is unchanged.
func (r *ROB) Complete(seq uint64, t float64) {
	if r.size == 0 {
		return
	}
	head := r.buf[r.head].Seq
	if seq < head {
		return
	}
	if off := seq - head; off < uint64(r.size) {
		e := &r.buf[(r.head+int(off))%len(r.buf)]
		if e.Seq == seq {
			e.DoneAt = t
			return
		}
	}
	for i := 0; i < r.size; i++ {
		e := &r.buf[(r.head+i)%len(r.buf)]
		if e.Seq == seq {
			e.DoneAt = t
			return
		}
	}
}

// Pop removes the head entry.
func (r *ROB) Pop() {
	if r.size == 0 {
		return
	}
	r.head = (r.head + 1) % len(r.buf)
	r.size--
}

// LSQEntry is one load/store queue slot, kept in program order from
// dispatch to retirement.
type LSQEntry struct {
	Seq       uint64
	IsStore   bool
	Addr      uint64
	Block     uint64 // Addr >> blockBits, for disambiguation
	Src1      int64
	Src2      int64
	VisibleAt float64
	Issued    bool
	DoneAt    float64 // +Inf until the access (or store address resolve) completes
}

// LSQ is the load/store queue.
type LSQ struct {
	entries   []LSQEntry
	cap       int
	blockBits uint
}

// NewLSQ returns a load/store queue with the given capacity and cache
// block size (for store-to-load disambiguation granularity).
func NewLSQ(capacity int, blockBytes int) *LSQ {
	bb := uint(0)
	for 1<<bb < blockBytes {
		bb++
	}
	return &LSQ{entries: make([]LSQEntry, 0, capacity), cap: capacity, blockBits: bb}
}

// Reset empties the queue for a reused core, reallocating only when the
// capacity changed; the disambiguation granularity is re-derived from
// blockBytes either way.
func (l *LSQ) Reset(capacity, blockBytes int) {
	if capacity != l.cap || cap(l.entries) < capacity {
		*l = *NewLSQ(capacity, blockBytes)
		return
	}
	bb := uint(0)
	for 1<<bb < blockBytes {
		bb++
	}
	l.blockBits = bb
	l.entries = l.entries[:0]
}

// Len returns occupancy; Cap capacity; Free open slots.
func (l *LSQ) Len() int  { return len(l.entries) }
func (l *LSQ) Cap() int  { return l.cap }
func (l *LSQ) Free() int { return l.cap - len(l.entries) }

// Clone returns a deep copy for checkpointed warmup reuse.
func (l *LSQ) Clone() *LSQ {
	c := &LSQ{entries: make([]LSQEntry, len(l.entries), l.cap), cap: l.cap, blockBits: l.blockBits}
	copy(c.entries, l.entries)
	return c
}

// CopyFrom restores src's exact state into the receiver, reusing its
// backing array. Both queues must share a capacity.
func (l *LSQ) CopyFrom(src *LSQ) {
	l.entries = append(l.entries[:0], src.entries...)
	l.cap = src.cap
	l.blockBits = src.blockBits
}

// ShiftTimes adds dt to every resident entry's visibility and completion
// times. See IssueQueue.ShiftTimes.
func (l *LSQ) ShiftTimes(dt float64) {
	for i := range l.entries {
		l.entries[i].VisibleAt += dt
		l.entries[i].DoneAt += dt
	}
}

// Push appends a memory op in program order, reporting false when full.
func (l *LSQ) Push(e LSQEntry) bool {
	if len(l.entries) >= l.cap {
		return false
	}
	e.Block = e.Addr >> l.blockBits
	l.entries = append(l.entries, e)
	return true
}

// LSQIssue is one LSQ selection: the issued entry and, for a load,
// whether an older store to the same block forwards its data.
type LSQIssue struct {
	E       *LSQEntry
	Forward bool
}

// Select is the load/store domain tick's issue walk over at most ports
// memory ports, in program order. A store issues (resolves its address)
// once it is visible and its sources are; a load additionally waits
// until every older store has issued, then forwards from an older store
// to the same block or accesses the cache. Each selected entry is marked
// Issued and appended to out; the caller stamps DoneAt and completes it.
// Readiness and the quiet-until bound are as for IssueQueue.Select, with
// one rule more: a load blocked only by an unissued older store
// contributes +Inf, because that store's own bound covers it and its
// issue is itself a readiness input.
func (l *LSQ) Select(ports int, w *Wakeup, out []LSQIssue) ([]LSQIssue, float64) {
	slots, rmask, subv, addv := w.scanParams()
	now := w.Now
	quiet := math.Inf(1)
	n0 := len(out)
	allIssued := true // every older store has issued
	for i := 0; i < len(l.entries) && ports > 0; i++ {
		e := &l.entries[i]
		if e.Issued || (!e.IsStore && !allIssued) {
			continue
		}
		rt := readyAt(slots, rmask, &subv, &addv, e.VisibleAt, e.Src1)
		rt = readyAt(slots, rmask, &subv, &addv, rt, e.Src2)
		if now < rt {
			if e.IsStore {
				allIssued = false
			}
			if rt < quiet {
				quiet = rt
			}
			continue
		}
		fwd := false
		if !e.IsStore {
			for j := i - 1; j >= 0 && !fwd; j-- {
				fwd = l.entries[j].IsStore && l.entries[j].Block == e.Block
			}
		}
		e.Issued = true
		out = append(out, LSQIssue{E: e, Forward: fwd})
		ports--
	}
	if len(out) > n0 {
		quiet = math.Inf(-1)
	}
	return out, quiet
}

// Retire removes the oldest entry if it matches seq (entries retire in
// program order with the ROB).
func (l *LSQ) Retire(seq uint64) {
	if len(l.entries) > 0 && l.entries[0].Seq == seq {
		l.entries = l.entries[:copy(l.entries, l.entries[1:])]
	}
}
