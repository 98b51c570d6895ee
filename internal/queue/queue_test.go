package queue

import (
	"math"
	"testing"
	"testing/quick"

	"mcd/internal/workload"
)

// anyClass accepts every instruction class; visibleNow is a Wakeup under
// which readiness is controlled purely by each entry's VisibleAt.
var anyClass = ClassMask(0xffff)

func visibleNow(now float64) *Wakeup {
	w := &Wakeup{Periods: [4]float64{1000, 1000, 1000, 1000}}
	w.SetTick(now, 0)
	return w
}

func entry(seq uint64, visibleAt float64) Entry {
	return Entry{Seq: seq, Src1: None, Src2: None, VisibleAt: visibleAt}
}

// selectOne runs a single-pipe selection: classes on the first pipe, the
// second pipe idle.
func selectOne(q *IssueQueue, max int, classes ClassMask, w *Wakeup) ([]Entry, float64) {
	out, _, quiet := q.Select(max, classes, 0, 0, w, nil, nil)
	return out, quiet
}

func TestIssueQueueCapacity(t *testing.T) {
	q := NewIssueQueue(2)
	if !q.Push(Entry{Seq: 1}) || !q.Push(Entry{Seq: 2}) {
		t.Fatal("pushes into empty queue failed")
	}
	if q.Push(Entry{Seq: 3}) {
		t.Error("push into full queue succeeded")
	}
	if q.Len() != 2 || q.Free() != 0 || q.Cap() != 2 {
		t.Errorf("len/free/cap = %d/%d/%d", q.Len(), q.Free(), q.Cap())
	}
}

func TestIssueQueueSelectOldestFirst(t *testing.T) {
	q := NewIssueQueue(8)
	for i := uint64(0); i < 6; i++ {
		vis := 0.0
		if i%2 == 1 {
			vis = math.Inf(1) // odd seqs not yet visible
		}
		q.Push(entry(i, vis))
	}
	// Only even seqs ready; select at most 2: must pick 0 and 2.
	got, quiet := selectOne(q, 2, anyClass, visibleNow(0))
	if !math.IsInf(quiet, -1) {
		t.Errorf("quiet after selecting = %v, want -Inf", quiet)
	}
	if len(got) != 2 || got[0].Seq != 0 || got[1].Seq != 2 {
		t.Fatalf("selected %+v, want seqs 0,2", got)
	}
	if q.Len() != 4 {
		t.Errorf("len after select = %d, want 4", q.Len())
	}
	// Remaining order preserved: 1,3,4,5.
	rest, _ := selectOne(q, 10, anyClass, visibleNow(math.Inf(1)))
	want := []uint64{1, 3, 4, 5}
	for i, e := range rest {
		if e.Seq != want[i] {
			t.Errorf("rest[%d].Seq = %d, want %d", i, e.Seq, want[i])
		}
	}
}

func TestIssueQueueSelectNoneReady(t *testing.T) {
	q := NewIssueQueue(4)
	q.Push(entry(9, math.Inf(1)))
	out, quiet := selectOne(q, 4, anyClass, visibleNow(100))
	if len(out) != 0 || q.Len() != 1 {
		t.Error("nothing should have been selected")
	}
	if !math.IsInf(quiet, 1) {
		t.Errorf("quiet = %v, want +Inf (the entry never becomes visible)", quiet)
	}
	q.Push(entry(10, 250))
	if out, quiet = selectOne(q, 4, anyClass, visibleNow(100)); len(out) != 0 || quiet != 250 {
		t.Errorf("selected %d, quiet %v; want none until 250", len(out), quiet)
	}
	if _, _, quiet = NewIssueQueue(4).Select(4, anyClass, 4, anyClass, visibleNow(0), nil, nil); !math.IsInf(quiet, 1) {
		t.Errorf("empty queue quiet = %v, want +Inf", quiet)
	}
}

func TestIssueQueueSelectClassMask(t *testing.T) {
	q := NewIssueQueue(8)
	classes := []workload.Class{workload.IntALU, workload.IntMul, workload.Branch, workload.IntALU}
	for i, c := range classes {
		e := entry(uint64(i), 0)
		e.Class = c
		q.Push(e)
	}
	mask := MaskOf(workload.IntALU, workload.Branch)
	got, _ := selectOne(q, 8, mask, visibleNow(0))
	if len(got) != 3 {
		t.Fatalf("selected %d entries, want 3 (ALU, Branch, ALU)", len(got))
	}
	for _, e := range got {
		if e.Class == workload.IntMul {
			t.Errorf("mask %b selected excluded class %v", mask, e.Class)
		}
	}
	if q.Len() != 1 || q.entries[0].Class != workload.IntMul {
		t.Errorf("IntMul entry should remain, queue = %+v", q.entries)
	}
	// An entry no pipe will take bounds nothing: it stays unselectable
	// however long the scan waits.
	if got, quiet := selectOne(q, 8, mask, visibleNow(0)); len(got) != 0 || !math.IsInf(quiet, 1) {
		t.Errorf("masked-out entry: selected %d, quiet %v; want none, +Inf", len(got), quiet)
	}
}

func TestIssueQueueSelectTwoPipes(t *testing.T) {
	q := NewIssueQueue(8)
	classes := []workload.Class{workload.IntMul, workload.IntALU, workload.IntMul, workload.Branch, workload.IntALU}
	for i, c := range classes {
		e := entry(uint64(i), 0)
		e.Class = c
		q.Push(e)
	}
	alu, mul, quiet := q.Select(1, MaskOf(workload.IntALU, workload.Branch), 2, MaskOf(workload.IntMul),
		visibleNow(0), nil, nil)
	if len(alu) != 1 || alu[0].Seq != 1 || len(mul) != 2 || mul[0].Seq != 0 || mul[1].Seq != 2 {
		t.Fatalf("pipes selected %+v / %+v, want seq 1 / seqs 0,2", alu, mul)
	}
	if !math.IsInf(quiet, -1) || q.Len() != 2 || q.entries[0].Seq != 3 || q.entries[1].Seq != 4 {
		t.Errorf("quiet %v, rest %+v; want -Inf and seqs 3,4", quiet, q.entries)
	}
}

// TestWakeupSrcReadyMatchesVisibilityRule pins the source-visibility
// rule the scans evaluate, through a one-entry queue whose only pending
// input is the source under test.
func TestWakeupSrcReadyMatchesVisibilityRule(t *testing.T) {
	ring := NewCompletionRing(64)
	ring.Dispatch(7, 2)
	ring.Complete(7, 10_000)
	w := &Wakeup{SyncWindowPS: 300, Periods: [4]float64{1000, 800, 1250, 900}, Ring: ring}
	// ready reports whether an entry sourcing src is selected at now in
	// domain dom, and the quiet bound a non-selecting scan reports.
	ready := func(src int64, now float64, dom uint8) (bool, float64) {
		q := NewIssueQueue(1)
		q.Push(Entry{Seq: 60, Src1: src, Src2: None})
		w.SetTick(now, dom)
		out, quiet := selectOne(q, 1, anyClass, w)
		return len(out) == 1, quiet
	}

	// Absent source: always ready.
	if ok, _ := ready(None, 0, 1); !ok {
		t.Error("absent source not ready")
	}
	// Cross-domain (producer 2 → consumer 1): visible at
	// done − period(producer) + window = 10000 − 1250 + 300 = 9050.
	if ok, quiet := ready(7, 9049.9, 1); ok || quiet != 9050 {
		t.Errorf("before the synchronization window cleared: ready %v, quiet %v (want 9050)", ok, quiet)
	}
	if ok, _ := ready(7, 9050, 1); !ok {
		t.Error("not ready at the visibility boundary")
	}
	// Same-domain: half-cycle guard, done − 0.5×period(producer).
	if ok, _ := ready(7, 10_000-0.5*1250, 2); !ok {
		t.Error("same-domain bypass point not honoured")
	}
	if ok, quiet := ready(7, 10_000-0.5*1250-0.1, 2); ok || quiet != 10_000-0.5*1250 {
		t.Errorf("before the same-domain bypass point: ready %v, quiet %v", ok, quiet)
	}
	// Single clock: the same half-cycle rule regardless of domains.
	w.SingleClock = true
	if ok, _ := ready(7, 10_000-0.5*1250, 1); !ok {
		t.Error("single-clock bypass point not honoured")
	}
	// Never-dispatched producers read as ancient history.
	if ok, _ := ready(55, 0, 1); !ok {
		t.Error("unknown producer should be long complete")
	}
	// In-flight producers bound nothing until they complete.
	ring.Dispatch(8, 1)
	if ok, quiet := ready(8, 1e12, 2); ok || !math.IsInf(quiet, 1) {
		t.Errorf("in-flight producer: ready %v, quiet %v; want false, +Inf", ok, quiet)
	}
}

func TestIssueQueueReset(t *testing.T) {
	q := NewIssueQueue(4)
	q.Push(entry(1, 0))
	q.Reset(4)
	if q.Len() != 0 || q.Cap() != 4 {
		t.Errorf("reset queue len/cap = %d/%d, want 0/4", q.Len(), q.Cap())
	}
	q.Push(entry(2, 0))
	q.Reset(8) // capacity change must take effect
	if q.Len() != 0 || q.Cap() != 8 || q.Free() != 8 {
		t.Errorf("resized queue len/cap/free = %d/%d/%d", q.Len(), q.Cap(), q.Free())
	}
}

func TestCompletionRingLifecycle(t *testing.T) {
	r := NewCompletionRing(512)
	// Unknown seq reads as long complete.
	if d, _ := r.Lookup(42); !math.IsInf(d, -1) {
		t.Errorf("unknown seq doneAt = %v, want -Inf", d)
	}
	r.Dispatch(42, 2)
	if d, dom := r.Lookup(42); !math.IsInf(d, 1) || dom != 2 {
		t.Errorf("in-flight = (%v,%d), want (+Inf,2)", d, dom)
	}
	r.Complete(42, 1234.5)
	if d, _ := r.Lookup(42); d != 1234.5 {
		t.Errorf("completed doneAt = %v, want 1234.5", d)
	}
	// Overwrite by a much newer seq in the same slot.
	r.Dispatch(42+512, 1)
	if d, _ := r.Lookup(42); !math.IsInf(d, -1) {
		t.Errorf("overwritten slot = %v, want -Inf", d)
	}
	r.Complete(42, 99) // stale complete must be ignored
	if d, _ := r.Lookup(42 + 512); !math.IsInf(d, 1) {
		t.Error("stale Complete corrupted newer entry")
	}
	// Reset returns every slot to the empty state.
	r.Reset()
	if d, dom := r.Lookup(42 + 512); !math.IsInf(d, -1) || dom != 0 {
		t.Errorf("post-reset slot = (%v,%d), want (-Inf,0)", d, dom)
	}
}

func TestCompletionRingPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewCompletionRing(100)
}

func TestROBInOrderRetire(t *testing.T) {
	r := NewROB(4)
	for i := uint64(0); i < 4; i++ {
		if !r.Push(ROBEntry{Seq: i, DoneAt: math.Inf(1)}) {
			t.Fatalf("push %d failed", i)
		}
	}
	if r.Push(ROBEntry{Seq: 9}) {
		t.Error("push into full ROB succeeded")
	}
	r.Complete(1, 10) // younger completes first: head must still block
	if h := r.Head(); h.Seq != 0 || !math.IsInf(h.DoneAt, 1) {
		t.Errorf("head = %+v, want seq 0 incomplete", h)
	}
	r.Complete(0, 20)
	if h := r.Head(); h.DoneAt != 20 {
		t.Errorf("head doneAt = %v, want 20", h.DoneAt)
	}
	r.Pop()
	if h := r.Head(); h.Seq != 1 || h.DoneAt != 10 {
		t.Errorf("next head = %+v, want seq 1 done at 10", h)
	}
	r.Pop()
	r.Pop()
	r.Pop()
	if r.Head() != nil || r.Len() != 0 {
		t.Error("ROB should be empty")
	}
	r.Pop() // popping empty is a no-op
}

func TestROBCompleteBounds(t *testing.T) {
	r := NewROB(4)
	r.Push(ROBEntry{Seq: 10, DoneAt: math.Inf(1)})
	r.Push(ROBEntry{Seq: 11, DoneAt: math.Inf(1)})
	r.Complete(9, 1)  // older than the window: ignored
	r.Complete(12, 1) // younger than the window: ignored
	for i := 0; i < 2; i++ {
		if !math.IsInf(r.buf[(r.head+i)%len(r.buf)].DoneAt, 1) {
			t.Fatalf("out-of-window Complete mutated entry %d", i)
		}
	}
	r.Complete(11, 77)
	r.Pop()
	if h := r.Head(); h.Seq != 11 || h.DoneAt != 77 {
		t.Errorf("head = %+v, want seq 11 done at 77", h)
	}
}

func TestROBWraparound(t *testing.T) {
	r := NewROB(3)
	for i := uint64(0); i < 10; i++ {
		if !r.Push(ROBEntry{Seq: i, DoneAt: float64(i)}) {
			t.Fatalf("push %d failed", i)
		}
		if r.Head().Seq != i {
			t.Fatalf("head seq = %d, want %d", r.Head().Seq, i)
		}
		// The direct-index Complete must land on the head slot as the
		// window slides through the backing array.
		r.Complete(i, float64(100+i))
		if r.Head().DoneAt != float64(100+i) {
			t.Fatalf("complete missed wrapped slot for seq %d", i)
		}
		r.Pop()
	}
}

func TestLSQDisambiguation(t *testing.T) {
	inf := math.Inf(1)
	ring := NewCompletionRing(64)
	ring.Dispatch(9, 1) // the store's address operand, still in flight
	l := NewLSQ(8, 64)
	l.Push(LSQEntry{Seq: 10, IsStore: true, Addr: 0x100, Src1: 9, Src2: None, DoneAt: inf})
	l.Push(LSQEntry{Seq: 11, Addr: 0x104, Src1: None, Src2: None, DoneAt: inf}) // same block as the store
	l.Push(LSQEntry{Seq: 12, Addr: 0x400, Src1: None, Src2: None, DoneAt: inf})
	w := &Wakeup{SyncWindowPS: 300, Periods: [4]float64{1000, 1000, 1000, 1000}, Ring: ring}
	w.SetTick(100, 3)

	// Store address unknown: loads of either block wait, and nothing
	// bounds the wait but the store's own operand.
	got, quiet := l.Select(4, w, nil)
	if len(got) != 0 || !math.IsInf(quiet, 1) {
		t.Fatalf("pre-resolve: selected %d, quiet %v; want none, +Inf", len(got), quiet)
	}

	// The operand completes (visible at 800 − 1000 + 300 = 100): one
	// port resolves the store and leaves the loads waiting.
	ring.Complete(9, 800)
	got, quiet = l.Select(1, w, nil)
	if len(got) != 1 || got[0].E.Seq != 10 || !l.entries[0].Issued || !math.IsInf(quiet, -1) {
		t.Fatalf("resolve: selected %+v, quiet %v; want the store alone, -Inf", got, quiet)
	}

	// Every older store issued: the same-block load forwards, the other
	// one goes to the cache.
	got, _ = l.Select(4, w, nil)
	if len(got) != 2 || got[0].E.Seq != 11 || !got[0].Forward || got[1].E.Seq != 12 || got[1].Forward {
		t.Errorf("post-resolve: selected %+v, want 11 forwarded then 12 from the cache", got)
	}
}

func TestLSQRetireInOrder(t *testing.T) {
	l := NewLSQ(4, 64)
	l.Push(LSQEntry{Seq: 5})
	l.Push(LSQEntry{Seq: 7})
	l.Retire(7) // not head: must be ignored
	if l.Len() != 2 {
		t.Error("out-of-order retire removed an entry")
	}
	l.Retire(5)
	if l.Len() != 1 || l.entries[0].Seq != 7 {
		t.Error("head retire failed")
	}
}

func TestLSQCapacity(t *testing.T) {
	l := NewLSQ(1, 64)
	if !l.Push(LSQEntry{Seq: 1}) || l.Push(LSQEntry{Seq: 2}) {
		t.Error("capacity not enforced")
	}
	if l.Free() != 0 || l.Cap() != 1 {
		t.Error("free/cap wrong")
	}
}

func TestLSQReset(t *testing.T) {
	l := NewLSQ(4, 64)
	l.Push(LSQEntry{Seq: 1, Addr: 0x1234})
	l.Reset(4, 32) // same capacity, new disambiguation granularity
	if l.Len() != 0 || l.Cap() != 4 {
		t.Errorf("reset LSQ len/cap = %d/%d, want 0/4", l.Len(), l.Cap())
	}
	l.Push(LSQEntry{Seq: 2, Addr: 0x40})
	if got := l.entries[0].Block; got != 0x40>>5 {
		t.Errorf("block = %#x, want %#x (32-byte granularity)", got, 0x40>>5)
	}
}

// Property: Select removes exactly the ready entries (up to max) and
// preserves relative order of the rest. Readiness is encoded through
// VisibleAt, the same field the pipeline's dispatch stamps.
func TestSelectPreservesOrderProperty(t *testing.T) {
	f := func(readyMask uint16, maxSel uint8) bool {
		q := NewIssueQueue(16)
		for i := uint64(0); i < 16; i++ {
			vis := math.Inf(1)
			if readyMask&(1<<i) != 0 {
				vis = 0
			}
			q.Push(entry(i, vis))
		}
		max := int(maxSel % 17)
		got, _ := selectOne(q, max, anyClass, visibleNow(0))
		if len(got) > max {
			return false
		}
		prev := int64(-1)
		for _, e := range got {
			if int64(e.Seq) <= prev || readyMask&(1<<e.Seq) == 0 {
				return false
			}
			prev = int64(e.Seq)
		}
		rest, _ := selectOne(q, 16, anyClass, visibleNow(math.Inf(1)))
		prev = -1
		for _, e := range rest {
			if int64(e.Seq) <= prev {
				return false
			}
			prev = int64(e.Seq)
		}
		return len(got)+len(rest) == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
