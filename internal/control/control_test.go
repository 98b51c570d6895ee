package control

import (
	"reflect"
	"strings"
	"testing"

	"mcd/internal/core"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

func testRun(t *testing.T) Run {
	t.Helper()
	b, ok := workload.Lookup("adpcm")
	if !ok {
		t.Fatal("adpcm missing from catalog")
	}
	return Run{
		Config:         pipeline.DefaultConfig(),
		Profile:        b.Profile,
		Window:         8_000,
		Warmup:         4_000,
		IntervalLength: 500,
	}
}

// The five legacy configuration names and both new controllers must all
// be registered.
func TestBuiltinNamesRegistered(t *testing.T) {
	names := Names()
	for _, want := range []string{
		"sync", "mcd", "attack-decay", "dynamic", "dynamic-1", "dynamic-5", "pi", "coord",
	} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("controller %q not registered (have %v)", want, names)
		}
	}
	if !sorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
}

func sorted(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

// Every registered controller resolves with defaults, keys
// deterministically, and no two names share a content address for the
// same base run.
func TestEveryControllerKeysDeterministically(t *testing.T) {
	run := testRun(t)
	seen := map[string]string{}
	for _, name := range Names() {
		res, err := Resolve(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k1, err := res.Key(run)
		if err != nil {
			t.Fatalf("%s: Key: %v", name, err)
		}
		res2, _ := Resolve(name, nil)
		k2, err := res2.Key(run)
		if err != nil {
			t.Fatalf("%s: re-Key: %v", name, err)
		}
		if k1 != k2 {
			t.Errorf("%s: key not deterministic: %s vs %s", name, k1, k2)
		}
		if prev, dup := seen[k1]; dup {
			t.Errorf("controllers %s and %s share key %s", prev, name, k1)
		}
		seen[k1] = name
	}
}

// Parameter overrides must move the content address; resolving the same
// overrides twice must not.
func TestParamsChangeKey(t *testing.T) {
	run := testRun(t)
	base, err := Resolve("pi", nil)
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := Resolve("pi", Params{"kp": 0.125})
	if err != nil {
		t.Fatal(err)
	}
	kb, err := base.Key(run)
	if err != nil {
		t.Fatal(err)
	}
	kt, err := tuned.Key(run)
	if err != nil {
		t.Fatal(err)
	}
	if kb == kt {
		t.Error("kp override did not change the content address")
	}
	if base.Canonical() == tuned.Canonical() {
		t.Error("kp override did not change the canonical encoding")
	}
}

// Unknown controller names are rejected with the sorted valid set in
// the error.
func TestUnknownNameListsSortedValidSet(t *testing.T) {
	_, err := Resolve("bogus", nil)
	if err == nil {
		t.Fatal("unknown controller accepted")
	}
	msg := err.Error()
	idx := -1
	for _, n := range Names() {
		i := strings.Index(msg, n)
		if i < 0 {
			t.Fatalf("error %q does not list %q", msg, n)
		}
		if i < idx {
			t.Fatalf("error %q does not list names in sorted order", msg)
		}
		idx = i
	}
}

func TestUnknownParameterListsSchema(t *testing.T) {
	_, err := Resolve("pi", Params{"nope": 1})
	if err == nil {
		t.Fatal("unknown parameter accepted")
	}
	for _, f := range []string{"setpoint", "kp", "ki", "windup"} {
		if !strings.Contains(err.Error(), f) {
			t.Errorf("error %q does not list schema field %q", err, f)
		}
	}
}

// Alias pins are not overridable: dynamic-1's target is fixed; the
// parameterized form is the canonical "dynamic" name.
func TestAliasPinsParameters(t *testing.T) {
	if _, err := Resolve("dynamic-1", Params{"target": 0.05}); err == nil {
		t.Fatal("pinned parameter override accepted")
	} else if !strings.Contains(err.Error(), `"dynamic"`) {
		t.Errorf("pin error %q does not point at the canonical name", err)
	}
	one, err := Resolve("dynamic-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := one.Params()["target"]; got != 0.01 {
		t.Errorf("dynamic-1 target = %v, want 0.01", got)
	}
	// iters stays tunable through the alias.
	if _, err := Resolve("dynamic-1", Params{"iters": 3}); err != nil {
		t.Errorf("unpinned parameter rejected through alias: %v", err)
	}
}

// The same name resolved through the alias and through the canonical
// definition with identical parameters must describe behaviourally
// identical controllers (equal canonical encodings) — but distinct
// result labels, hence distinct content addresses.
func TestAliasCanonicalEquivalence(t *testing.T) {
	run := testRun(t)
	alias, err := Resolve("dynamic-5", nil)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := Resolve("dynamic", Params{"target": 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if alias.Canonical() != canon.Canonical() {
		t.Errorf("canonical encodings differ: %q vs %q", alias.Canonical(), canon.Canonical())
	}
	ka, _ := alias.Key(run)
	kc, _ := canon.Key(run)
	if ka == kc {
		t.Error("alias and canonical name share a key despite different result labels")
	}
}

func TestRegisterRejectsBrokenDefinitions(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() { Register(Definition{}) })
	mustPanic("both nil", func() { Register(Definition{Name: "t-bothnil"}) })
	mustPanic("duplicate", func() {
		Register(Definition{Name: "pi", New: func(Params) (pipeline.Controller, error) { return nil, nil }})
	})
	mustPanic("dup field", func() {
		Register(Definition{
			Name:   "t-dupfield",
			Schema: Schema{{Name: "a"}, {Name: "a"}},
			New:    func(Params) (pipeline.Controller, error) { return nil, nil },
		})
	})
	mustPanic("alias of alias", func() { Alias("t-aa", "dynamic-1", nil) })
	mustPanic("alias unknown pin", func() { Alias("t-up", "dynamic", Params{"nope": 1}) })
}

// A freshly registered controller is immediately resolvable, runnable
// and content-addressable — the "one registration" contract the
// customcontroller example relies on.
func TestRegistrationIsSufficient(t *testing.T) {
	if _, ok := Lookup("t-fixed"); ok {
		t.Fatal("t-fixed already registered (test re-run in one process?)")
	}
	Register(Definition{
		Name:   "t-fixed",
		Doc:    "test controller",
		Schema: Schema{{Name: "f_mhz", Default: 500, Min: 250, Max: 1000}},
		New: func(p Params) (pipeline.Controller, error) {
			return fixedFreq{f: p["f_mhz"]}, nil
		},
	})
	run := testRun(t)
	res, err := Resolve("t-fixed", nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := res.Spec(run)
	if err != nil {
		t.Fatal(err)
	}
	r := sim.Run(spec)
	if r.Config != "t-fixed" {
		t.Errorf("result labeled %q, want t-fixed", r.Config)
	}
	// The run starts at 1000 MHz and the regulator slews, so the average
	// sits between the start and the 500 MHz command; it must still have
	// moved well below max.
	if got := r.AvgFreqMHz[1]; got > 900 {
		t.Errorf("fixed 500 MHz controller averaged %v MHz, never left max", got)
	}
	if _, err := res.Key(run); err != nil {
		t.Errorf("registered controller not content-addressable: %v", err)
	}
}

type fixedFreq struct{ f float64 }

func (c fixedFreq) Name() string     { return "t-fixed" }
func (c fixedFreq) CacheKey() string { return "t-fixed" }
func (c fixedFreq) Observe(pipeline.IntervalView) (t [4]float64) {
	t[0] = 1000
	t[1], t[2], t[3] = c.f, c.f, c.f
	return t
}

// Both new controllers actually control: on a benchmark with idle
// domains they save energy versus the all-max baseline while staying
// deterministic run to run (byte-identical canonical encodings, the
// property the result store rests on).
func TestPIAndCoordBehave(t *testing.T) {
	run := testRun(t)
	run.Window, run.Warmup = 40_000, 20_000

	base := runByName(t, "mcd", run)

	for _, name := range []string{"pi", "coord"} {
		r1 := runByName(t, name, run)
		r2 := runByName(t, name, run)
		b1, err := resultcache.EncodeResult(r1)
		if err != nil {
			t.Fatal(err)
		}
		b2, _ := resultcache.EncodeResult(r2)
		if string(b1) != string(b2) {
			t.Errorf("%s: repeated runs differ", name)
		}
		if r1.EnergyPJ >= base.EnergyPJ {
			t.Errorf("%s: no energy savings (%.0f vs base %.0f pJ)", name, r1.EnergyPJ, base.EnergyPJ)
		}
		if deg := r1.TimePS/base.TimePS - 1; deg > 0.15 {
			t.Errorf("%s: degradation %.1f%% is implausibly high", name, deg*100)
		}
		if r1.Transitions == 0 {
			t.Errorf("%s: controller never changed a frequency", name)
		}
	}
}

// TestSchemaFieldsAllMoveKeys guards key-material completeness for the
// New-based controllers: changing any single schema parameter must
// change both the registry content address (canonical-params path) and
// the instance's CacheKey (the hand-built-spec path) — a field added to
// a schema but forgotten by a CacheKey format string fails here instead
// of silently aliasing distinct runs in the cache.
func TestSchemaFieldsAllMoveKeys(t *testing.T) {
	run := testRun(t)
	for _, name := range []string{"pi", "coord", "attack-decay"} {
		reg, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		base, err := Resolve(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		baseKey, err := base.Key(run)
		if err != nil {
			t.Fatal(err)
		}
		baseCtrl, err := reg.New(base.Params())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range reg.Schema {
			tweaked, err := Resolve(name, Params{f.Name: f.Default*1.5 + 1})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, f.Name, err)
			}
			k, err := tweaked.Key(run)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, f.Name, err)
			}
			if k == baseKey {
				t.Errorf("%s: parameter %s does not move the registry key", name, f.Name)
			}
			ctrl, err := reg.New(tweaked.Params())
			if err != nil {
				t.Fatal(err)
			}
			ck, ok := ctrl.(resultcache.Keyer)
			bk, ok2 := baseCtrl.(resultcache.Keyer)
			if !ok || !ok2 {
				t.Fatalf("%s: instances do not implement CacheKey", name)
			}
			if ck.CacheKey() == bk.CacheKey() {
				t.Errorf("%s: parameter %s missing from CacheKey", name, f.Name)
			}
		}
	}
}

func runByName(t *testing.T, name string, run Run) stats.Result {
	t.Helper()
	res, err := Resolve(name, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := res.Spec(run)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Run(spec)
}

// The "global" definition must reproduce core.GlobalMatch exactly:
// building its spec and running it yields the same Result the direct
// search returns (the bisection's best probe is itself a synchronous
// run at the matched frequency, so purity closes the loop).
func TestGlobalDefinitionMatchesGlobalMatch(t *testing.T) {
	run := testRun(t)
	base := sim.Run(sim.SynchronousSpec(run.Config, run.Profile, run.Window, run.Warmup,
		run.Config.MaxFreqMHz, "global"))
	_, want := core.GlobalMatch(base.TimePS, 0.03, func(f float64) stats.Result {
		return sim.Run(sim.SynchronousSpec(run.Config, run.Profile, run.Window, run.Warmup, f, "global"))
	})

	res, err := Resolve("global", Params{"deg": 0.03, "base_ps": base.TimePS})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := res.Spec(run)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Run(spec); !reflect.DeepEqual(want, got) {
		t.Errorf("global definition run differs from core.GlobalMatch:\nwant %+v\ngot  %+v", want, got)
	}

	// base_ps 0 measures the baseline itself and must land on the same
	// schedule (the measured base is bit-equal to the explicit one).
	res0, err := Resolve("global", Params{"deg": 0.03})
	if err != nil {
		t.Fatal(err)
	}
	spec0, err := res0.Spec(run)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Run(spec0); !reflect.DeepEqual(want, got) {
		t.Error("global with measured baseline differs from explicit base_ps")
	}

	// The content address never pays for the bisection and separates by
	// parameters.
	k1, err := res.Key(run)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Resolve("global", Params{"deg": 0.05, "base_ps": base.TimePS})
	if err != nil {
		t.Fatal(err)
	}
	k2, err := res2.Key(run)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("distinct global targets share a content address")
	}
}

// The registry's attack-decay at its schema defaults must run
// byte-identically to core.NewAttackDecay over core.DefaultParams() —
// whose zero RefIPCDecay/IPCSmoothing fields core replaces with the
// values the schema spells out — so a parameterless request and the
// public mcd.Params construction are one controller.
func TestAttackDecayDefaultsMatchCore(t *testing.T) {
	run := testRun(t)
	direct := run.spec()
	direct.Controller = core.NewAttackDecay(core.DefaultParams())
	direct.Name = "attack-decay"
	want := sim.Run(direct)

	res, err := Resolve("attack-decay", nil)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := res.Spec(run)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Run(spec); !reflect.DeepEqual(want, got) {
		t.Error("attack-decay at schema defaults runs differently from core.NewAttackDecay(core.DefaultParams())")
	}
}

// The attack-decay schema must cover every core.Params field: a field
// added without a schema entry would be unreachable from requests and
// sweeps, and its value would not be key material through the
// canonical encoding. Same pattern as resultcache's
// TestKeyCoversEveryField.
func TestAttackDecaySchemaCoversEveryField(t *testing.T) {
	if n, f := reflect.TypeOf(core.Params{}).NumField(), len(attackDecaySchema()); n != f {
		t.Errorf("core.Params has %d fields, the attack-decay schema %d: extend the schema (and attackDecayParams)", n, f)
	}
}
