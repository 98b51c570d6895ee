package wire

import (
	"bytes"
	"context"
	"testing"

	"mcd/internal/bench"
	"mcd/internal/control"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
)

func streamReq() RunRequest {
	return RunRequest{
		Benchmark: "adpcm",
		Config:    ConfigAttackDecay,
		Window:    20_000,
		Warmup:    U64(10_000),
	}
}

// mustResolve resolves a request a test knows to be valid.
func mustResolve(t *testing.T, r RunRequest) Resolved {
	t.Helper()
	v, err := r.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// A streamed run emits one frame per measured control interval and
// returns the exact bytes a one-shot run of the same request serves —
// the property that lets a completed stream populate the cache for
// non-streamed requests.
func TestRunStreamMatchesOneShot(t *testing.T) {
	req := streamReq()
	spec, err := req.Spec()
	if err != nil {
		t.Fatal(err)
	}
	want, err := resultcache.EncodeResult(sim.Run(spec))
	if err != nil {
		t.Fatal(err)
	}
	var frames []stats.Interval
	got, hit, err := mustResolve(t, req).Run(context.Background(), nil, RunHooks{Emit: func(iv stats.Interval) {
		frames = append(frames, iv)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("uncached stream reported a hit")
	}
	if !bytes.Equal(want, got) {
		t.Errorf("streamed body differs from one-shot body:\n%s\n%s", want, got)
	}
	n := req.Normalize()
	if min := int(n.Window / *n.Interval); len(frames) < min {
		t.Errorf("got %d interval frames, want at least one per control interval (%d)", len(frames), min)
	}
	for i, iv := range frames {
		if iv.Index != i {
			t.Fatalf("frame %d carries interval index %d", i, iv.Index)
		}
	}
}

// A streamed run through the store writes the same entry a one-shot run
// would; the follow-up identical request is a hit with identical bytes
// and emits no interval frames.
func TestRunStreamPopulatesCache(t *testing.T) {
	c, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := streamReq()
	first, hit, err := mustResolve(t, req).Run(context.Background(), c, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("cold cache reported a hit")
	}
	emitted := 0
	second, hit, err := mustResolve(t, req).Run(context.Background(), c, RunHooks{Emit: func(stats.Interval) { emitted++ }})
	if err != nil {
		t.Fatal(err)
	}
	if !hit || emitted != 0 {
		t.Errorf("repeat stream: hit=%v emitted=%d, want a frame-less hit", hit, emitted)
	}
	if !bytes.Equal(first, second) {
		t.Error("cache hit bytes differ from the streamed run's")
	}
	plain, hit, err := req.RunCachedBytes(c)
	if err != nil {
		t.Fatal(err)
	}
	if !hit || !bytes.Equal(first, plain) {
		t.Errorf("non-streamed follow-up: hit=%v, byte-identical=%v", hit, bytes.Equal(first, plain))
	}
}

// Cancellation closes the session at an interval boundary: the error is
// the context's and nothing is stored.
func TestRunStreamCancelled(t *testing.T) {
	c, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := streamReq()
	ctx, cancel := context.WithCancel(context.Background())
	frames := 0
	_, _, err = mustResolve(t, req).Run(ctx, c, RunHooks{Emit: func(stats.Interval) {
		frames++
		if frames == 2 {
			cancel()
		}
	}})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if frames > 3 {
		t.Errorf("run kept producing %d frames after cancellation", frames)
	}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetBytes(key); ok {
		t.Error("a cancelled run stored a partial result")
	}
}

// TestBenchGridSharesRegistryAddresses closes the ROADMAP cache-reuse
// gap: every Table 6 grid cell — the compound off-line and Global(·)
// cells included — is stored under the control.Resolve-derived key the
// service would compute for the equivalent request, so a -cache DIR
// shared between mcdbench and mcdserve computes each cell once.
func TestBenchGridSharesRegistryAddresses(t *testing.T) {
	c, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := bench.QuickOptions()
	o.Window, o.Warmup, o.IntervalLength = 20_000, 10_000, 500
	o.Cache = c
	o.Benchmarks = []string{"adpcm"}
	cmp := o.RunAll()[0]

	slew := bench.SlewNsPerMHz
	base := RunRequest{
		Benchmark:    "adpcm",
		Window:       o.Window,
		Warmup:       U64(o.Warmup),
		Interval:     U64(o.IntervalLength),
		SlewNsPerMHz: &slew,
	}
	iters := map[string]float64{"iters": float64(o.OfflineIters)}
	for _, tc := range []struct {
		controller string
		params     map[string]float64
	}{
		{"sync", nil},
		{"mcd", nil},
		{"attack-decay", nil}, // schema defaults == bench default core.Params
		{"dynamic-1", iters},
		{"dynamic-5", iters},
	} {
		req := base
		req.Controller = tc.controller
		req.Params = tc.params
		key, err := req.Key()
		if err != nil {
			t.Fatalf("%s: %v", tc.controller, err)
		}
		if _, ok := c.GetBytes(key); !ok {
			t.Errorf("grid cell %q not stored under its registry request key", tc.controller)
		}
	}

	// The Global(·) compounds are registry cells too, parameterized by
	// the measured baseline and degradation.
	cfg := pipeline.DefaultConfig()
	cfg.SlewNsPerMHz = bench.SlewNsPerMHz
	run := control.Run{
		Config:         cfg,
		Profile:        cmp.Bench.Profile,
		Window:         o.Window,
		Warmup:         o.Warmup,
		IntervalLength: o.IntervalLength,
	}
	for _, g := range []struct {
		label string
		deg   float64
	}{
		{"global-ad", cmp.AD.TimePS/cmp.MCDBase.TimePS - 1},
		{"global-d1", cmp.Dyn1.TimePS/cmp.MCDBase.TimePS - 1},
		{"global-d5", cmp.Dyn5.TimePS/cmp.MCDBase.TimePS - 1},
	} {
		res, err := control.Resolve("global", control.Params{"deg": g.deg, "base_ps": cmp.Sync.TimePS})
		if err != nil {
			t.Fatal(err)
		}
		key, err := res.Key(run)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := c.GetBytes(key); !ok {
			t.Errorf("compound cell %q not stored under its registry key", g.label)
		}
	}
}
