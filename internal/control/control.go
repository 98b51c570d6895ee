// Package control is the pluggable controller registry: every control
// algorithm the system can run — the paper's Attack/Decay, the off-line
// Dynamic-X% comparator, global scaling, the synchronous baseline, and
// any future policy — is a named, parameterized factory registered
// here. A registration is self-describing in three directions at once:
//
//   - toward the simulator: it builds the exact sim.Spec a request
//     describes (including compound preparation such as an off-line
//     schedule search);
//   - toward the result cache: it supplies the canonical parameter
//     encoding that feeds resultcache.SpecKey, so every registered
//     controller's runs are content-addressable under mcd-spec-v3;
//   - toward the wire: its name and parameter schema are what the JSON
//     "controller"/"params" request fields, GET /v1/controllers, and
//     the CLI flag sets are generated from.
//
// Adding a control algorithm is therefore a single Register call (see
// examples/customcontroller); the CLIs, the HTTP service, the sweep
// harness and the cache pick it up with no further edits.
package control

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// Params maps parameter names to numeric values. All controller
// parameters are float64 — integer-valued ones (iteration counts,
// end-stop counts) are truncated by the definition that consumes them —
// which is what makes every registered controller uniformly sweepable.
type Params map[string]float64

// Field describes one numeric parameter of a controller's schema.
type Field struct {
	Name    string  `json:"name"`
	Default float64 `json:"default"`
	// Min and Max document the sensible range; sweeps without explicit
	// values sample it. They are advisory, not enforced.
	Min float64 `json:"min"`
	Max float64 `json:"max"`
	Doc string  `json:"doc,omitempty"`
}

// Schema is an ordered list of parameter fields; the order is the
// canonical encoding order.
type Schema []Field

// Field finds a schema field by name.
func (s Schema) Field(name string) (Field, bool) {
	for _, f := range s {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// names returns the field names in schema order.
func (s Schema) names() []string {
	out := make([]string, len(s))
	for i, f := range s {
		out[i] = f.Name
	}
	return out
}

// Canonical encodes resolved parameter values in schema order with the
// result store's exact float spelling: equal parameter sets always
// encode to equal strings and distinct ones never collide, so the
// encoding is safe key material.
func (s Schema) Canonical(p Params) string {
	var b strings.Builder
	for _, f := range s {
		fmt.Fprintf(&b, "|%s=%s", f.Name, resultcache.Float(p[f.Name]))
	}
	return b.String()
}

// Run is the controller-independent description of one simulation: what
// a request looks like before a registered definition turns it into a
// full sim.Spec.
type Run struct {
	Config         pipeline.Config
	Profile        workload.Profile
	Window         uint64
	Warmup         uint64
	IntervalLength uint64
	// Name labels the Result (sim.Spec.Name); empty means the name the
	// controller was requested under.
	Name string
	// Fidelity selects the simulation tier ("" or sim.FidelityExact for
	// the exact engine, sim.FidelitySampled for interval sampling);
	// SampleEvery is the sampled tier's detailed-interval cadence (zero
	// uses sim.DefaultSampleEvery). Both thread verbatim into every spec
	// a definition builds, including the compound preparations (off-line
	// schedule search, global matching), so a sampled request is sampled
	// end to end and keyed apart from exact.
	Fidelity    string
	SampleEvery int
	// Store, if non-nil, is shared by every run that goes through
	// Simulate: the sub-runs of compound preparations (the off-line
	// search's baseline and refined schedules, global matching's
	// probes). A spec it already holds is not simulated again. It is
	// never key material: it never changes a result.
	Store *resultcache.Cache
}

// Simulate runs one spec through the run's Store. The store key is the
// spec with its Name cleared and RecordIntervals set, so runs that
// differ only in label or recording simulate once. Each caller gets its
// own view of the stored result: Config is the caller's Name, and
// Intervals are dropped unless the caller asked for them. Recording is
// observational (the registry tests pin it), so the view is
// byte-identical to sim.Run(spec). A nil Store or an opaque controller
// (no key) runs directly, by the store's own rule.
func (r Run) Simulate(spec sim.Spec) stats.Result {
	shared := spec
	shared.Name = ""
	shared.RecordIntervals = true
	key, _ := resultcache.SpecKey(shared)
	res, _, err := r.Store.DoResult(key, func() (stats.Result, error) { return sim.Run(shared), nil })
	if err != nil {
		return sim.Run(spec) // an undecodable stored entry
	}
	res.Config = spec.Name
	if !spec.RecordIntervals {
		res.Intervals = nil
	}
	return res
}

// spec is the plain sim.Spec for the run, before any controller is
// attached.
func (r Run) spec() sim.Spec {
	return sim.Spec{
		Config:         r.Config,
		Profile:        r.Profile,
		Window:         r.Window,
		Warmup:         r.Warmup,
		IntervalLength: r.IntervalLength,
		Name:           r.Name,
		Fidelity:       r.Fidelity,
		SampleEvery:    r.SampleEvery,
	}
}

// withFidelity stamps the run's fidelity tier onto a spec built some
// other way (the synchronous and global definitions construct theirs via
// sim.SynchronousSpec).
func (r Run) withFidelity(s sim.Spec) sim.Spec {
	s.Fidelity = r.Fidelity
	s.SampleEvery = r.SampleEvery
	return s
}

// syncSpec is the fully synchronous spec at frequency f under the run's
// fidelity tier. At sampled fidelity the request's interval length is
// threaded through as well — it is the sampling unit, and the default
// 10k-instruction interval would leave a quick-scale window with too few
// samples to calibrate on. At exact fidelity the synchronous machine has
// no controller observing intervals and keeps its historical
// default-length intervals (and their byte-identical stream frames).
func (r Run) syncSpec(f float64) sim.Spec {
	s := r.withFidelity(sim.SynchronousSpec(r.Config, r.Profile, r.Window, r.Warmup, f, r.Name))
	if s.Sampled() {
		s.IntervalLength = r.IntervalLength
	}
	return s
}

// Definition is one registered controller factory.
type Definition struct {
	// Name is the registry key: the value of the wire "controller"
	// field and the CLI -config/-controller flags.
	Name string
	// Doc is a one-line description served by GET /v1/controllers.
	Doc string
	// Schema declares the numeric parameters and their defaults.
	Schema Schema

	// Exactly one of New and Build must be set.
	//
	// New constructs a fresh controller instance for the resolved
	// parameters — the common case. A nil controller means a
	// fixed-frequency run (the MCD baseline). The instance's behaviour
	// must be fully determined by the parameters: registry runs are
	// content-addressed by the canonical parameter encoding (see
	// Resolved.Key), so hidden construction-time state would alias
	// distinct computations onto one address. Implementing
	// resultcache.Keyer additionally makes hand-built specs (outside
	// the registry path) cacheable.
	New func(p Params) (pipeline.Controller, error)
	// Build customizes the entire run instead: it receives the base run
	// and resolved parameters and returns the final spec. Expensive
	// preparation (the off-line schedule search) happens here.
	Build func(r Run, p Params) (sim.Spec, error)

	// KeySpec, for Build definitions whose Build is expensive, returns
	// the cheap spec plus extra key material that content-address the
	// run without performing the preparation. When nil, the key is
	// derived from Build (or New) directly.
	KeySpec func(r Run, p Params) (spec sim.Spec, extra string, err error)

	// SearchItersParam, when set, names the schema parameter that
	// carries this definition's search-iteration budget. The experiment
	// harness maps its own iteration bound (bench Options.OfflineIters)
	// onto it so quick-scale sweeps don't pay full-depth searches; it is
	// an explicit opt-in, never inferred from a parameter's name.
	SearchItersParam string
}

// Registered is a registry entry: a definition, possibly reached
// through an alias that pins some of its parameters.
type Registered struct {
	Definition
	// AliasFor is the canonical definition name when this entry is an
	// alias ("dynamic-1" → "dynamic"); empty for canonical entries.
	AliasFor string
	// Pinned are the parameter values the alias fixes; requests may not
	// override them.
	Pinned Params
}

// Info is the self-description of one registry entry, served by
// GET /v1/controllers.
type Info struct {
	Name     string             `json:"name"`
	Doc      string             `json:"doc,omitempty"`
	AliasFor string             `json:"alias_for,omitempty"`
	Pinned   map[string]float64 `json:"pinned,omitempty"`
	Params   []Field            `json:"params,omitempty"`
}

var (
	mu       sync.RWMutex
	registry = map[string]Registered{}
)

// Register adds a definition under its name. It panics on an invalid
// definition or a duplicate name: registration happens at init time,
// where a broken registry should stop the program, not limp.
func Register(d Definition) {
	if d.Name == "" {
		panic("control: Register with empty name")
	}
	if (d.New == nil) == (d.Build == nil) {
		panic(fmt.Sprintf("control: definition %q must set exactly one of New and Build", d.Name))
	}
	seen := map[string]bool{}
	for _, f := range d.Schema {
		if f.Name == "" || seen[f.Name] {
			panic(fmt.Sprintf("control: definition %q has an empty or duplicate schema field %q", d.Name, f.Name))
		}
		seen[f.Name] = true
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[d.Name]; dup {
		panic(fmt.Sprintf("control: controller %q registered twice", d.Name))
	}
	registry[d.Name] = Registered{Definition: d}
}

// Alias registers name as target with the given parameters pinned, so
// legacy or shorthand names keep working while the canonical definition
// lives in one place. Pinned keys must exist in the target's schema.
func Alias(name, target string, pinned Params) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("control: controller %q registered twice", name))
	}
	t, ok := registry[target]
	if !ok || t.AliasFor != "" {
		panic(fmt.Sprintf("control: alias %q targets unknown or alias controller %q", name, target))
	}
	for k := range pinned {
		if _, ok := t.Schema.Field(k); !ok {
			panic(fmt.Sprintf("control: alias %q pins unknown parameter %q of %q", name, k, target))
		}
	}
	registry[name] = Registered{Definition: t.Definition, AliasFor: target, Pinned: pinned}
}

// Lookup finds a registry entry by name.
func Lookup(name string) (Registered, bool) {
	mu.RLock()
	defer mu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// Names returns every registered name (canonical and alias), sorted —
// the one source of truth for "valid controller" listings everywhere.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe returns the registry's self-description, sorted by name.
func Describe() []Info {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Info, 0, len(registry))
	for n, r := range registry {
		info := Info{Name: n, Doc: r.Doc, AliasFor: r.AliasFor, Params: append([]Field(nil), r.Schema...)}
		if len(r.Pinned) > 0 {
			info.Pinned = map[string]float64{}
			for k, v := range r.Pinned {
				info.Pinned[k] = v
			}
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Resolved pairs a registry entry with a fully resolved parameter set
// (schema defaults, overlaid by alias pins, overlaid by user values).
type Resolved struct {
	reg    Registered
	name   string // the requested name, which labels results and keys
	params Params
}

// Resolve looks a controller up by name and merges user parameters over
// the schema defaults and alias pins. Unknown names and unknown or
// pinned parameters are rejected with errors that list the sorted valid
// set — the one source of truth for CLI usage errors and HTTP 400s.
func Resolve(name string, user Params) (Resolved, error) {
	reg, ok := Lookup(name)
	if !ok {
		return Resolved{}, fmt.Errorf("unknown controller %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	p := Params{}
	for _, f := range reg.Schema {
		p[f.Name] = f.Default
	}
	for k, v := range reg.Pinned {
		p[k] = v
	}
	keys := make([]string, 0, len(user))
	for k := range user {
		keys = append(keys, k)
	}
	sort.Strings(keys) // deterministic first-error selection
	for _, k := range keys {
		if _, ok := reg.Schema.Field(k); !ok {
			if len(reg.Schema) == 0 {
				return Resolved{}, fmt.Errorf("unknown parameter %q: controller %q takes no parameters", k, name)
			}
			return Resolved{}, fmt.Errorf("unknown parameter %q for controller %q (valid: %s)",
				k, name, strings.Join(reg.Schema.names(), ", "))
		}
		if _, pinned := reg.Pinned[k]; pinned {
			return Resolved{}, fmt.Errorf("parameter %q is pinned by alias %q (use controller %q to set it)",
				k, name, reg.AliasFor)
		}
		p[k] = user[k]
	}
	return Resolved{reg: reg, name: name, params: p}, nil
}

// Name returns the name the controller was resolved under.
func (r Resolved) Name() string { return r.name }

// Params returns a copy of the resolved parameter values.
func (r Resolved) Params() Params {
	out := Params{}
	for k, v := range r.params {
		out[k] = v
	}
	return out
}

// Canonical returns the canonical encoding of the resolution: the
// definition name plus every resolved parameter in schema order, exact
// float spelling. Equal canonical strings mean behaviourally identical
// controllers.
func (r Resolved) Canonical() string {
	return r.reg.Definition.Name + r.reg.Schema.Canonical(r.params)
}

// withName fills the run's result label with the requested name.
func (r Resolved) withName(run Run) Run {
	if run.Name == "" {
		run.Name = r.name
	}
	return run
}

// Spec builds the full simulation spec for the run — instantiating a
// fresh controller, or performing the definition's compound preparation
// (an off-line schedule search). It is a deterministic pure function of
// (run, resolved parameters), which is what makes its result cacheable
// under Key.
func (r Resolved) Spec(run Run) (sim.Spec, error) {
	run = r.withName(run)
	if r.reg.Build != nil {
		return r.reg.Build(run, r.params)
	}
	ctrl, err := r.reg.New(r.params)
	if err != nil {
		return sim.Spec{}, err
	}
	spec := run.spec()
	spec.Controller = ctrl
	return spec, nil
}

// Key returns the run's content address in the result store under the
// current spec-key version, without performing any expensive
// preparation the definition may need at Spec time.
//
// New-based runs are keyed by the controller-less spec plus the
// resolution's canonical parameter encoding — never by the controller
// instance's own CacheKey — so a registered controller's content
// address is complete by construction (the schema is the single source
// of key material) rather than depending on a hand-maintained CacheKey
// format string staying in sync with the schema.
func (r Resolved) Key(run Run) (string, error) {
	run = r.withName(run)
	if r.reg.KeySpec != nil {
		spec, extra, err := r.reg.KeySpec(run, r.params)
		if err != nil {
			return "", err
		}
		return resultcache.SpecKeyExtra(spec, extra)
	}
	if r.reg.Build != nil {
		// Build without KeySpec is declared cheap; the built spec keys
		// itself (its controller, if any, must implement CacheKey).
		spec, err := r.Spec(run)
		if err != nil {
			return "", err
		}
		return resultcache.SpecKey(spec)
	}
	return resultcache.SpecKeyExtra(run.spec(), "control|"+r.Canonical())
}
