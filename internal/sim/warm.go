package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mcd/internal/pipeline"
)

// Checkpointed warmup reuse for the sampled fidelity tier: a sweep runs
// the same benchmark's warmup prefix once, snapshots the warmed core at
// the last interval boundary safely before the measurement mark, and
// restores the snapshot into every cell's core. Soundness rests on two
// properties: sampled-mode warmup is uncontrolled (pipeline gates the
// controller off until the mark when SampleEvery > 0), so warmed state
// is controller-independent; and WarmState capture/restore is complete,
// so a restored core is byte-identical to one that warmed itself. Exact
// runs never touch this path — their warmup always executes in full.

// warmReuse can be flipped off (SetWarmReuse) so the byte-identity pin
// test can compare warm-restored runs against straight ones.
var warmReuse atomic.Bool

func init() { warmReuse.Store(true) }

// SetWarmReuse enables or disables checkpointed warmup reuse for sampled
// runs (enabled by default). Exact runs are unaffected. Intended for the
// warm-snapshot pin tests and for debugging; not safe to flip while
// sessions are being opened concurrently.
func SetWarmReuse(enabled bool) { warmReuse.Store(enabled) }

const warmCacheCap = 32 // snapshots are ~1 MB each; a sweep needs one per benchmark

type warmEntry struct {
	ready chan struct{}
	state *pipeline.WarmState
}

var warmCache = struct {
	sync.Mutex
	entries map[string]*warmEntry
	order   []string // insertion order, for bounded eviction
}{entries: make(map[string]*warmEntry)}

// warmIntervals returns how many control intervals of warmup can be
// snapshotted and shared: the last interval boundary k safely before the
// mark. One front-end cycle can retire up to RetireWidth instructions
// past a boundary, and the build runs without a controller, so the
// boundary keeps that much headroom (k·l + RetireWidth ≤ Warmup, the
// headroom the sampled tier's skip scheduling keeps too) — otherwise the
// build's last edge could cross the mark and emit a measured interval no
// controller observed. k is also at most the boundary before the mark's
// own, which is the binding limit whenever l ≥ RetireWidth. Runs with no
// such boundary past the first are ineligible.
func warmIntervals(s Spec) int {
	l := int(s.IntervalLength)
	if l == 0 {
		l = pipeline.DefaultIntervalLength
	}
	w := int(s.Warmup)
	k := min((w-s.Config.RetireWidth)/l, w/l-1)
	if k < 1 {
		return 0
	}
	return k
}

// warmKey identifies a shareable warmup prefix: everything that shapes
// the pre-mark cycle stream, and nothing that doesn't (controller, name,
// recording — all inert before the mark at sampled fidelity).
func warmKey(s Spec) string {
	return fmt.Sprintf("cfg=%+v|prof=%+v|win=%d|warm=%d|iv=%d|init=%v|sample=%d",
		s.Config, s.Profile, s.Window, s.Warmup, s.IntervalLength,
		s.InitialFreqMHz, s.EffectiveSampleEvery())
}

// warmFor returns the shared warm snapshot for the spec's warmup prefix,
// building it (once, with single-flight) on first use. It returns nil
// when reuse is disabled, the warmup is too short to share, or the
// workload generator cannot checkpoint — callers then warm in-line.
func warmFor(s Spec) *pipeline.WarmState {
	if !warmReuse.Load() {
		return nil
	}
	k := warmIntervals(s)
	if k < 1 {
		return nil
	}
	key := warmKey(s)
	warmCache.Lock()
	e, ok := warmCache.entries[key]
	if ok {
		warmCache.Unlock()
		<-e.ready
		return e.state
	}
	e = &warmEntry{ready: make(chan struct{})}
	warmCache.entries[key] = e
	warmCache.order = append(warmCache.order, key)
	if len(warmCache.order) > warmCacheCap {
		oldest := warmCache.order[0]
		warmCache.order = warmCache.order[1:]
		delete(warmCache.entries, oldest)
	}
	warmCache.Unlock()
	e.state = buildWarm(s, k)
	close(e.ready)
	return e.state
}

// buildWarm executes the warmup prefix — controller-less, at the spec's
// sampled cadence — through k interval boundaries and captures the core.
func buildWarm(s Spec, k int) *pipeline.WarmState {
	gen := s.Profile.NewGenerator(s.Warmup + s.Window)
	var core *pipeline.Core
	if c, ok := corePool.Get().(*pipeline.Core); ok {
		c.Reset(s.Config, gen)
		core = c
	} else {
		core = pipeline.New(s.Config, gen)
	}
	core.Start(pipeline.RunOptions{
		Window:         s.Window,
		Warmup:         s.Warmup,
		IntervalLength: s.IntervalLength,
		InitialFreqMHz: s.InitialFreqMHz,
		SampleEvery:    s.EffectiveSampleEvery(),
	})
	core.StepIntervals(k)
	w := core.CaptureWarm()
	core.Release()
	corePool.Put(core)
	return w
}
