package main

import (
	"fmt"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mcd/internal/sim"
)

// usage is a snapshot of the process counters a pass is charged with.
type usage struct {
	cpu      time.Duration // user + system CPU of the whole process
	gcCycles uint64
	allocs   uint64  // heap bytes allocated
	pauseS   float64 // GC stop-the-world time, summed from the pause histogram
	instr    uint64  // simulated instructions (sim.SimulatedInstructions)
}

var usageSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/sched/pauses/total/gc:seconds",
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]rtmetrics.Sample, len(usageSamples))
	for i, name := range usageSamples {
		s[i].Name = name
	}
	rtmetrics.Read(s)
	u := usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		instr: sim.SimulatedInstructions(),
	}
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		u.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == rtmetrics.KindUint64 {
		u.allocs = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == rtmetrics.KindFloat64Histogram {
		u.pauseS = histSum(s[2].Value.Float64Histogram())
	}
	return u
}

// histSum estimates the total of a runtime histogram from its bucket
// midpoints (an open-ended bucket counts at its finite edge).
func histSum(h *rtmetrics.Float64Histogram) float64 {
	var sum float64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		sum += float64(n) * (lo + hi) / 2
	}
	return sum
}

func (u usage) plus(v usage) usage {
	return usage{
		cpu:      u.cpu + v.cpu,
		gcCycles: u.gcCycles + v.gcCycles,
		allocs:   u.allocs + v.allocs,
		pauseS:   u.pauseS + v.pauseS,
		instr:    u.instr + v.instr,
	}
}

func (u usage) minus(v usage) usage {
	return usage{
		cpu:      u.cpu - v.cpu,
		gcCycles: u.gcCycles - v.gcCycles,
		allocs:   u.allocs - v.allocs,
		pauseS:   u.pauseS - v.pauseS,
		instr:    u.instr - v.instr,
	}
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tally counts the ops a run attempted and failed, and any run-level
// guard that did not hold; either makes the run incorrect.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	guards    int
	notes     []string
}

func (t *tally) op(i int, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		t.note(fmt.Sprintf("op %d: %v", i, err))
	}
}

// check records one run-level guard.
func (t *tally) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.guards++
	t.note(fmt.Sprintf(format, args...))
}

func (t *tally) note(s string) {
	if len(t.notes) < 20 {
		t.notes = append(t.notes, s)
	}
}

func (t *tally) report(m map[string]metric) *report {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, n := range t.notes {
		fmt.Fprintln(os.Stderr, "perfbench:", n)
	}
	return &report{Correct: t.failed == 0 && t.guards == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// pass is one closed-loop replay of a request list.
type pass struct {
	lat  []float64 // per-op latency in seconds, by op index, steal taken out
	wall float64   // seconds, calibration and steal excluded
	use  usage     // process counters charged to the ops
	// speed is the machine-speed factor measured over the pass.
	speed float64
	// stolen is the machine's steal time over the pass's ops, in seconds.
	stolen float64
}

// scale is what a wall time of the pass is multiplied by to report it:
// scaled to the reference speed (each chunk's steal share is already out).
func (p pass) scale() float64 { return p.speed }

// closedLoop runs ops 0..n-1 from the given number of clients. Each
// client sends its next op only after the previous one returned, and
// ops are handed out in list order, so every pass runs the whole list
// whatever its speed. The list runs in chunks of chunk ops; once a chunk's
// ops have all returned, a calibration sample runs on the idle process,
// outside the pass's time and counters. chunk 0 makes the whole list one
// chunk, calibrated in the background while it runs: for ops too long to
// calibrate after each, or that keep every CPU busy.
func closedLoop(n, clients, chunk int, op func(i int) error, t *tally) pass {
	if chunk > 0 {
		return interleave(n, chunk, t, lane{clients, op})[0]
	}
	p := pass{lat: make([]float64, n)}
	var speed speedometer
	stop := speed.background()
	p.runChunk(0, n, clients, op, t)
	stop()
	p.speed = speed.factor()
	return p
}

// runChunk runs ops lo..hi-1 from the given number of clients and charges
// their time, counters and steal to the pass.
func (p *pass) runChunk(lo, hi, clients int, op func(i int) error, t *tally) {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	u0, s0 := readUsage(), stolenSeconds()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < hi; i = int(next.Add(1) - 1) {
				t0 := time.Now()
				err := op(i)
				p.lat[i] = time.Since(t0).Seconds()
				t.op(i, err)
			}
		}()
	}
	wg.Wait()
	d := time.Since(start).Seconds()
	use := readUsage().minus(u0)
	stolen := stolenSeconds() - s0
	// The chunk's ops lose its steal share: a burst of steal lands on the
	// ops it hit, not on the whole pass.
	keep := 1 - stealShare(stolen, use.cpu)
	for i := lo; i < hi; i++ {
		p.lat[i] *= keep
	}
	p.wall += d * keep
	p.use = p.use.plus(use)
	p.stolen += stolen
}

// lane is one pass of an interleaved run: its clients and its op.
type lane struct {
	clients int
	op      func(i int) error
}

// interleave runs one list through several passes at once, a chunk at a
// time: ops lo..hi of every lane, in lane order, then the next chunk. The
// passes of a traced run are compared with one another — untraced against
// traced against the replay — and interleaving puts each chunk of one
// pass beside the same chunk of the others, so the machine's speed, which
// moves from one second to the next, moves them alike. Each pass is
// charged only its own ops' time and counters; a calibration sample
// follows every chunk.
func interleave(n, chunk int, t *tally, lanes ...lane) []pass {
	out := make([]pass, len(lanes))
	for k := range out {
		out[k].lat = make([]float64, n)
	}
	var speed speedometer
	for lo := 0; lo < n; lo += chunk {
		for k, l := range lanes {
			out[k].runChunk(lo, min(lo+chunk, n), l.clients, l.op, t)
		}
		speed.sample()
	}
	for k := range out {
		out[k].speed = speed.factor()
	}
	return out
}

// endToEnd derives the end-to-end metrics from an untraced pass. Every
// time is scaled to the reference machine speed by the pass's calibration
// factor, and wall times lose the pass's steal share. tailChunks splits a
// long pass into that many runs of consecutive ops and reports the median
// of their tails: the eleventh slowest of a thousand ops repeats, that of
// sixty thousand does not.
func endToEnd(setupS float64, p pass, tailChunks int) map[string]metric {
	n := float64(len(p.lat))
	f := p.scale()
	tl, pct, per := chunkedTail(p.lat, tailChunks)
	if tailChunks > 1 {
		fmt.Printf("tail_ms is the median over %d runs of %d consecutive ops of each run's p%.2f\n", tailChunks, per, pct)
	} else {
		fmt.Printf("tail_ms is the p%.2f of %d ops\n", pct, per)
	}
	fmt.Printf("measured at speed factor %.4f with %.2f s stolen: p50 %.4f ms, tail %.4f ms, %.4f ops/s, %.4f CPU ms/op before scaling\n",
		p.speed, p.stolen, median(p.lat)*1e3, tl*1e3, n/p.wall, p.use.cpu.Seconds()*1e3/n)
	return map[string]metric{
		"setup_s":       {setupS, "s"},
		"p50_ms":        {median(p.lat) * 1e3 * f, "ms"},
		"tail_ms":       {tl * 1e3 * f, "ms"},
		"ops_per_s":     {n / p.wall / f, "1/s"},
		"cpu_ms_per_op": {p.use.cpu.Seconds() * 1e3 / n * p.speed, "ms"},
		"peak_rss_mb":   {peakRSSMB(), "MB"},
	}
}

// chunkedTail returns the median over chunks runs of consecutive values
// of each run's tail, the percentile that tail sits at, and the values
// per run.
func chunkedTail(xs []float64, chunks int) (float64, float64, int) {
	chunks = max(1, min(chunks, len(xs)))
	per := len(xs) / chunks
	tails := make([]float64, chunks)
	var pct float64
	for c := range tails {
		tails[c], pct = tail(xs[c*per : (c+1)*per])
	}
	return median(tails), pct, per
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// medianIndex returns the index of xs's median value (the lower middle
// one when len(xs) is even).
func medianIndex(xs []float64) int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	return idx[(len(xs)-1)/2]
}

func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest order statistic with at least ten samples
// above it and the percentile it sits at; with fewer than eleven
// samples no such statistic exists and the maximum stands in.
func tail(xs []float64) (float64, float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	i := n - 11
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

// spans records the benchmark's own timings around calls into each
// layer (one sample per call, in seconds) and the counts that go with
// them. A sequential replay also files each sample under the op it
// belongs to (setOp), so one op's layers can be listed.
type spans struct {
	mu     sync.Mutex
	d      map[string][]float64
	counts map[string]float64
	op     int                  // the op samples are filed under; -1: none
	byOp   []map[string]float64 // per op: layer → self time
}

func newSpans() *spans {
	return &spans{d: map[string][]float64{}, counts: map[string]float64{}, op: -1}
}

func (s *spans) add(name string, d time.Duration) {
	s.mu.Lock()
	s.d[name] = append(s.d[name], d.Seconds())
	if s.op >= 0 {
		for len(s.byOp) <= s.op {
			s.byOp = append(s.byOp, map[string]float64{})
		}
		s.byOp[s.op][name] += d.Seconds()
	}
	s.mu.Unlock()
}

// setOp files later samples under op i.
func (s *spans) setOp(i int) {
	s.mu.Lock()
	s.op = i
	s.mu.Unlock()
}

// opParts lists op i's self time in each named layer.
func (s *spans) opParts(i int, names ...string) []part {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]part, len(names))
	for k, n := range names {
		out[k] = part{n, 0}
		if i < len(s.byOp) {
			out[k].seconds = s.byOp[i][n]
		}
	}
	return out
}

func (s *spans) count(name string, v float64) {
	s.mu.Lock()
	s.counts[name] += v
	s.mu.Unlock()
}

// timed runs fn as one call into the named layer.
func (s *spans) timed(name string, fn func() error) (time.Duration, error) {
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	s.add(name, d)
	return d, err
}

func (s *spans) med(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return median(s.d[name])
}

func (s *spans) total(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var sum float64
	for _, v := range s.d[name] {
		sum += v
	}
	return sum
}

func (s *spans) n(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d[name])
}

func (s *spans) counted(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[name]
}

// parts lists each named layer's total self time divided by div.
func (s *spans) parts(div float64, names ...string) []part {
	out := make([]part, len(names))
	for i, n := range names {
		out[i] = part{n, s.total(n) / div}
	}
	return out
}

// timeSetup times one set-up, scaled like a pass: calibrated in the
// background, with the steal share taken out.
func timeSetup(build func()) float64 {
	var speed speedometer
	stop := speed.background()
	u0, s0 := readUsage(), stolenSeconds()
	t0 := time.Now()
	build()
	d := time.Since(t0).Seconds()
	share := stealShare(stolenSeconds()-s0, readUsage().minus(u0).cpu)
	stop()
	return d * (1 - share) * speed.factor()
}

// repeatSetup builds the workload's state reps times, tearing down
// all but the last build, and returns the last with the median time,
// each build's time scaled to the reference machine speed.
func repeatSetup[T any](reps int, build func() (T, error), teardown func(T)) (T, float64, error) {
	var last T
	times := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		if r > 0 {
			teardown(last)
		}
		var v T
		var err error
		d := timeSetup(func() { v, err = build() })
		if err != nil {
			var zero T
			return zero, 0, err
		}
		times = append(times, d)
		last = v
	}
	return last, median(times), nil
}
