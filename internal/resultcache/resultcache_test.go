package resultcache_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcd/internal/clock"
	"mcd/internal/core"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

func testSpec(t *testing.T, ctrl pipeline.Controller, name string) sim.Spec {
	t.Helper()
	b, ok := workload.Lookup("adpcm")
	if !ok {
		t.Fatal("adpcm not in catalog")
	}
	return sim.Spec{
		Config:         pipeline.DefaultConfig(),
		Profile:        b.Profile,
		Window:         8_000,
		Warmup:         4_000,
		IntervalLength: 250,
		Controller:     ctrl,
		Name:           name,
	}
}

func TestSpecKeyDeterministicAndSensitive(t *testing.T) {
	s := testSpec(t, nil, "mcd-base")
	k1, err := resultcache.SpecKey(s)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := resultcache.SpecKey(s)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("same spec, different keys: %s vs %s", k1, k2)
	}

	// Every mutation below must change the address.
	muts := map[string]func(*sim.Spec){
		"window":     func(s *sim.Spec) { s.Window++ },
		"warmup":     func(s *sim.Spec) { s.Warmup++ },
		"interval":   func(s *sim.Spec) { s.IntervalLength++ },
		"name":       func(s *sim.Spec) { s.Name = "other" },
		"record":     func(s *sim.Spec) { s.RecordIntervals = true },
		"seed":       func(s *sim.Spec) { s.Config.Seed++ },
		"slew":       func(s *sim.Spec) { s.Config.SlewNsPerMHz *= 2 },
		"single":     func(s *sim.Spec) { s.Config.SingleClock = true },
		"init":       func(s *sim.Spec) { s.InitialFreqMHz[clock.Integer] = 500 },
		"profile":    func(s *sim.Spec) { s.Profile.Seed++ },
		"phase":      func(s *sim.Spec) { s.Profile.Phases[0].DepMean += 1 },
		"controller": func(s *sim.Spec) { s.Controller = core.NewAttackDecay(core.DefaultParams()) },
		"fidelity":   func(s *sim.Spec) { s.Fidelity = sim.FidelitySampled },
		"sample": func(s *sim.Spec) {
			s.Fidelity = sim.FidelitySampled
			s.SampleEvery = sim.DefaultSampleEvery * 2
		},
	}
	for label, mut := range muts {
		m := testSpec(t, nil, "mcd-base")
		mut(&m)
		km, err := resultcache.SpecKey(m)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if km == k1 {
			t.Errorf("mutating %s did not change the key", label)
		}
	}

	// Controller parameters are part of the address.
	ka1, _ := resultcache.SpecKey(testSpec(t, core.NewAttackDecay(core.DefaultParams()), "ad"))
	p := core.DefaultParams()
	p.Decay *= 2
	ka2, _ := resultcache.SpecKey(testSpec(t, core.NewAttackDecay(p), "ad"))
	if ka1 == ka2 {
		t.Error("attack-decay params did not change the key")
	}

	// Extra material is part of the address.
	ke, _ := resultcache.SpecKeyExtra(s, "offline|target=1")
	if ke == k1 {
		t.Error("extra material did not change the key")
	}
}

type opaqueController struct{}

func (opaqueController) Name() string { return "opaque" }
func (opaqueController) Observe(pipeline.IntervalView) [clock.NumControllable]float64 {
	return [clock.NumControllable]float64{}
}

func TestSpecKeyUncacheableController(t *testing.T) {
	_, err := resultcache.SpecKey(testSpec(t, opaqueController{}, "opaque"))
	if err == nil || !strings.Contains(err.Error(), "CacheKey") {
		t.Fatalf("want ErrUncacheable, got %v", err)
	}
}

// TestKeyCoversEveryField pins the field counts of every struct the
// canonical encoding covers. When this test fails, a field was added or
// removed: update encodeSpec/CacheKey to cover it AND bump
// specKeyVersion so stale disk entries cannot satisfy new requests.
func TestKeyCoversEveryField(t *testing.T) {
	want := map[string]struct {
		typ reflect.Type
		n   int
	}{
		// 10th/11th fields, Fidelity and SampleEvery: covered by the
		// unconditional normalized fidelity line (see SpecKeyExtra),
		// which forced the v2 → v3 version bump.
		"sim.Spec":         {reflect.TypeOf(sim.Spec{}), 11},
		"pipeline.Config":  {reflect.TypeOf(pipeline.Config{}), 29},
		"workload.Profile": {reflect.TypeOf(workload.Profile{}), 5},
		"workload.Phase":   {reflect.TypeOf(workload.Phase{}), 11},
		"workload.Mix":     {reflect.TypeOf(workload.Mix{}), 8},
		"core.Params":      {reflect.TypeOf(core.Params{}), 10},
		// OfflineOptions is key material through CacheExtra: a new
		// result-affecting search field must be added there (and the
		// version bumped) or stale dynamic-1%/5% entries get served.
		// (TargetDeg and Iterations are encoded directly. AdaptiveStep
		// is a conditional "|adapt=1" suffix with no version bump — the
		// zero value encodes exactly as before, so every legacy address
		// is preserved, and the suffix cannot collide with a legacy
		// extra, which always ends in "cands=1".
		// TestAdaptiveCacheExtraPreservesLegacyAddresses pins both
		// halves. Warmup and IntervalLength ride on the profiling spec.
		// Fidelity and SampleEvery are deliberately NOT in CacheExtra —
		// they are run-surface, not search-surface, and the outer
		// spec's fidelity line already addresses them. The step factors
		// and the one schedule per pass are constants CacheExtra still
		// writes as "down=…|up=…|cands=1", so no address moved when
		// their option fields were deleted.)
		"core.OfflineOptions": {reflect.TypeOf(core.OfflineOptions{}), 7},
	}
	for name, w := range want {
		if n := w.typ.NumField(); n != w.n {
			t.Errorf("%s has %d fields, encoder covers %d: extend the canonical encoding and bump specKeyVersion",
				name, n, w.n)
		}
	}
}

// TestSpecKeyV3Migration pins the fidelity tier's addressing rules.
// The recorded constant is the v2 ("mcd-spec-v2", no fidelity line)
// address of the same base spec: a v3 binary must never produce it, so
// stale pre-fidelity disk entries can never satisfy new requests. On
// the v3 surface, exact is one computation however it is spelled
// (empty or explicit fidelity, any SampleEvery — exact ignores it),
// and each sampled cadence is a distinct one.
func TestSpecKeyV3Migration(t *testing.T) {
	const v2Key = "21877937e1fe69f6ff468a0c043cf40996f71def59feae08208fe8c9069e910d"
	s := testSpec(t, nil, "mcd-base")
	k, err := resultcache.SpecKey(s)
	if err != nil {
		t.Fatal(err)
	}
	if k == v2Key {
		t.Error("v3 encoder reproduced the v2 address: stale entries would be served")
	}

	// Every spelling of exact addresses the same computation.
	e := s
	e.Fidelity = sim.FidelityExact
	e.SampleEvery = 7
	if ke, _ := resultcache.SpecKey(e); ke != k {
		t.Error("explicit exact (with a stray SampleEvery) does not share the implicit exact address")
	}

	// Sampled never collides with exact; the defaulted cadence resolves
	// to its effective value; distinct cadences are distinct addresses.
	sm := s
	sm.Fidelity = sim.FidelitySampled
	kDef, _ := resultcache.SpecKey(sm)
	if kDef == k {
		t.Error("sampled shares the exact address")
	}
	sm.SampleEvery = sim.DefaultSampleEvery
	if kRes, _ := resultcache.SpecKey(sm); kRes != kDef {
		t.Error("defaulted cadence does not resolve to its effective value")
	}
	sm.SampleEvery = sim.DefaultSampleEvery * 2
	if k2, _ := resultcache.SpecKey(sm); k2 == kDef {
		t.Error("distinct sampled cadences share an address")
	}
}

// TestCachedByteIdentical is the determinism-under-caching contract:
// the cached result is byte-identical to a recompute, and the decoded
// hit is indistinguishable from the directly computed Result.
func TestCachedByteIdentical(t *testing.T) {
	c, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(t, core.NewAttackDecay(core.DefaultParams()), "attack-decay")
	key, err := resultcache.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func() (stats.Result, error) {
		s := spec
		s.Controller = core.NewAttackDecay(core.DefaultParams())
		return sim.Run(s), nil
	}

	r1, hit1, err := c.DoResult(key, run)
	if err != nil || hit1 {
		t.Fatalf("first Do: hit=%v err=%v", hit1, err)
	}
	r2, hit2, err := c.DoResult(key, run)
	if err != nil || !hit2 {
		t.Fatalf("second Do: hit=%v err=%v", hit2, err)
	}
	direct, _ := run()

	b1, _ := resultcache.EncodeResult(r1)
	b2, _ := resultcache.EncodeResult(r2)
	bd, _ := resultcache.EncodeResult(direct)
	if !bytes.Equal(b1, b2) {
		t.Error("cached result not byte-identical to first compute")
	}
	if !bytes.Equal(b2, bd) {
		t.Error("cached result not byte-identical to a recompute")
	}
	if !reflect.DeepEqual(r2, direct) {
		t.Error("decoded hit differs structurally from a recompute")
	}
}

func TestSingleFlight(t *testing.T) {
	c, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	var computes atomic.Int32
	release := make(chan struct{})
	compute := func() ([]byte, error) {
		computes.Add(1)
		<-release
		return []byte("payload\n"), nil
	}

	var wg sync.WaitGroup
	results := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, _, err := c.DoBytes("k", compute, nil)
			if err != nil {
				t.Error(err)
			}
			results[i] = b
		}(i)
	}
	// Wait until every follower has joined the in-flight call, then let
	// the one compute finish.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Dedups != waiters-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d dedups after 5s", c.Stats().Dedups)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, b := range results {
		if string(b) != "payload\n" {
			t.Fatalf("waiter %d got %q", i, b)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Dedups != waiters-1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDiskStoreSurvivesProcessRestart(t *testing.T) {
	dir := t.TempDir()
	c1, err := resultcache.New(resultcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var computes int
	payload := []byte(`{"x":1}` + "\n")
	if _, hit, _ := c1.DoBytes("k", func() ([]byte, error) { computes++; return payload, nil }, nil); hit {
		t.Fatal("unexpected hit on empty cache")
	}
	// Atomic write discipline: only the final file, no temp debris.
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) != ".json" {
			t.Fatalf("unexpected debris in cache dir: %s", e.Name())
		}
	}

	// A fresh cache over the same directory — a new process — hits disk.
	c2, err := resultcache.New(resultcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	b, hit, err := c2.DoBytes("k", func() ([]byte, error) { computes++; return nil, nil }, nil)
	if err != nil || !hit || !bytes.Equal(b, payload) {
		t.Fatalf("disk reload: hit=%v err=%v b=%q", hit, err, b)
	}
	if computes != 1 {
		t.Fatalf("compute ran %d times, want 1", computes)
	}
	if s := c2.Stats(); s.DiskHits != 1 {
		t.Fatalf("stats = %+v, want one disk hit", s)
	}
}

// TestCorruptDiskEntryIsAMiss: an unreadable on-disk encoding (bit
// rot, fs truncation, operator edit) must cost a recompute, never a
// served-garbage hit.
func TestCorruptDiskEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c1, err := resultcache.New(resultcache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"x":1}` + "\n")
	if err := c1.PutBytes("k", payload); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "k.json"), []byte("garbage{"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := resultcache.New(resultcache.Options{Dir: dir}) // no memory copy
	if err != nil {
		t.Fatal(err)
	}
	computes := 0
	b, hit, err := c2.DoBytes("k", func() ([]byte, error) { computes++; return payload, nil }, nil)
	if err != nil || hit || computes != 1 || !bytes.Equal(b, payload) {
		t.Fatalf("corrupt entry: b=%q hit=%v computes=%d err=%v", b, hit, computes, err)
	}
	// The corrupt file was replaced by the recompute's persist.
	if got, ok := c2.GetBytes("k"); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("store not repaired: %q %v", got, ok)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	c, err := resultcache.New(resultcache.Options{MaxMemBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	blob := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i)}, 30) }
	for i := 0; i < 4; i++ {
		c.PutBytes(fmt.Sprintf("k%d", i), blob(i))
	}
	s := c.Stats()
	if s.MemBytes > 64 {
		t.Fatalf("memory bound exceeded: %d bytes", s.MemBytes)
	}
	if s.Evictions == 0 {
		t.Fatal("expected evictions")
	}
	// The most recent entry survives; the oldest is gone (no disk tier).
	if _, ok := c.GetBytes("k3"); !ok {
		t.Error("most recent entry evicted")
	}
	if _, ok := c.GetBytes("k0"); ok {
		t.Error("oldest entry still resident")
	}
}

// TestPanickingComputeDoesNotStrandFlight: a panic inside the compute
// closure must unwind (the runner's recovery handles it) without
// leaving a single-flight entry behind — the next request for the key
// must compute, not block forever, and concurrent followers must get an
// error instead of hanging.
func TestPanickingComputeDoesNotStrandFlight(t *testing.T) {
	c, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		c.DoBytes("k", func() ([]byte, error) { panic("boom") }, nil)
	}()

	done := make(chan struct{})
	go func() {
		defer close(done)
		b, hit, err := c.DoBytes("k", func() ([]byte, error) { return []byte("ok\n"), nil }, nil)
		if err != nil || hit || string(b) != "ok\n" {
			t.Errorf("post-panic Do: b=%q hit=%v err=%v", b, hit, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("request after a panicked compute blocked: flight entry leaked")
	}
}

func TestNilCacheComputes(t *testing.T) {
	var c *resultcache.Cache
	r, hit, err := c.DoResult("k", func() (stats.Result, error) {
		return stats.Result{Benchmark: "x"}, nil
	})
	if err != nil || hit || r.Benchmark != "x" {
		t.Fatalf("nil cache: r=%+v hit=%v err=%v", r, hit, err)
	}
	if s := c.Stats(); s != (resultcache.Stats{}) {
		t.Fatalf("nil cache stats = %+v", s)
	}
}

// A flight leader cancelled by its own caller (a streamed run whose
// client disconnected) must not fail unrelated followers: they retry —
// becoming the leader — instead of inheriting context.Canceled.
func TestCancelledLeaderDoesNotPoisonFollowers(t *testing.T) {
	c, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	leaderStarted := make(chan struct{})
	leaderAbort := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.DoBytes("k", func() ([]byte, error) {
			close(leaderStarted)
			<-leaderAbort
			return nil, context.Canceled
		}, nil)
		leaderDone <- err
	}()
	<-leaderStarted

	followerDone := make(chan error, 1)
	var followerBody []byte
	go func() {
		b, _, err := c.DoBytes("k", func() ([]byte, error) {
			return []byte(`{"ok":true}` + "\n"), nil
		}, nil)
		followerBody = b
		followerDone <- err
	}()
	// Give the follower time to join the flight, then cancel the leader.
	time.Sleep(20 * time.Millisecond)
	close(leaderAbort)

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Errorf("leader error = %v, want context.Canceled", err)
	}
	if err := <-followerDone; err != nil {
		t.Errorf("follower inherited the leader's cancellation: %v", err)
	}
	if string(followerBody) != `{"ok":true}`+"\n" {
		t.Errorf("follower body %q", followerBody)
	}
	// The retried computation stored normally.
	if _, ok := c.GetBytes("k"); !ok {
		t.Error("retried computation not stored")
	}
}
