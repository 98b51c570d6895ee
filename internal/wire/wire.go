// Package wire defines the machine-readable request and result
// encodings shared by the command-line tools (-json flags) and the
// mcdserve HTTP service, so a result printed by a CLI is byte-for-byte
// the body the service would serve for the same request. Result bytes
// themselves use the canonical encoding owned by internal/resultcache;
// controller names and parameters are owned by the registry in
// internal/control — this package only carries them.
package wire

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"mcd/internal/bench"
	"mcd/internal/control"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/workload"
)

// ConfigAttackDecay is the default controller of a RunRequest. It and
// the other legacy configuration names (sync, mcd, dynamic-1,
// dynamic-5) stay registered in internal/control, so requests written
// against the old closed enum keep working byte-for-byte; the full
// valid set is Controllers().
const ConfigAttackDecay = "attack-decay"

// Controllers returns every valid controller name, sorted — derived
// from the registry, so the CLIs, this package's validation errors and
// the service can never drift apart.
func Controllers() []string { return control.Names() }

// RunRequest describes one simulation run: the JSON body of
// POST /v1/runs and the programmatic form of cmd/mcdsim's flags.
// Zero-valued fields take the mcdsim defaults.
type RunRequest struct {
	Benchmark string `json:"benchmark"` // catalog name (default epic.decode)
	// Controller selects a registered control algorithm by name (see
	// GET /v1/controllers); Config is the legacy spelling of the same
	// field. Setting both to different names is an error. Default
	// attack-decay.
	Controller string `json:"controller,omitempty"`
	Config     string `json:"config,omitempty"`
	// Params overrides the controller's schema defaults by name;
	// unknown names are rejected with the schema's valid set.
	Params map[string]float64 `json:"params,omitempty"`
	Window uint64             `json:"window,omitempty"` // measured instructions (default 400000; 0 would measure nothing)
	// Warmup, Interval and SlewNsPerMHz are pointers because their
	// explicit zeros are meaningful configurations distinct from
	// "unset": warmup 0 measures from a cold start, interval 0 selects
	// the pipeline's paper-scale 10,000-instruction default, slew 0 is
	// an ideal instant regulator. nil takes the documented default.
	Warmup       *uint64  `json:"warmup,omitempty"`          // default 200000
	Interval     *uint64  `json:"interval,omitempty"`        // default 1000
	SlewNsPerMHz *float64 `json:"slew_ns_per_mhz,omitempty"` // default 4.91
	// Fidelity selects the simulation tier: "" or "exact" for the default
	// cycle-exact engine, "sampled" for interval sampling with
	// checkpointed warmup reuse (see GET /v1/controllers for the exact
	// semantics; sampled results carry error-bound fields). Unknown names
	// are rejected with the valid set.
	Fidelity string `json:"fidelity,omitempty"`
	// SampleEvery is the sampled tier's detailed-interval cadence; zero
	// takes the default (10). Ignored at exact fidelity.
	SampleEvery int `json:"sample_every,omitempty"`
	// store is the experiment-grid row store a request built by
	// CellRequest carries (bench.Cell.Store); decoded requests have
	// none.
	store *resultcache.Cache
}

// U64 is a literal-pointer helper for the optional request fields.
func U64(v uint64) *uint64 { return &v }

// defaults is the harness's default operating point, which a request's
// unset scale fields take.
var defaults = bench.DefaultOptions()

// Normalize fills defaulted fields in, returning the canonical request.
// The scale defaults are the harness's (bench.DefaultOptions and
// bench.SlewNsPerMHz).
func (r RunRequest) Normalize() RunRequest {
	if r.Benchmark == "" {
		r.Benchmark = "epic.decode"
	}
	if r.Controller == "" && r.Config == "" {
		r.Config = ConfigAttackDecay
	}
	if r.Window == 0 {
		r.Window = defaults.Window
	}
	if r.Warmup == nil {
		r.Warmup = U64(defaults.Warmup)
	}
	if r.Interval == nil {
		r.Interval = U64(defaults.IntervalLength)
	}
	if r.SlewNsPerMHz == nil {
		slew := bench.SlewNsPerMHz
		r.SlewNsPerMHz = &slew
	}
	return r
}

// ControllerName returns the effective controller name of the
// (normalized) request, whichever field it was spelled in.
func (r RunRequest) ControllerName() string {
	r = r.Normalize()
	if r.Controller != "" {
		return r.Controller
	}
	return r.Config
}

// Resolved is a run request resolved once, at the trust boundary it
// entered through: normalized, validated, resolved against the registry
// and content-addressed. Everything downstream derives nothing again.
type Resolved struct {
	// Key is the request's content address in the result store; "" when
	// it has none (an opaque controller, or a key error Run reports).
	Key    string
	req    RunRequest
	run    control.Run
	res    control.Resolved
	keyErr error
}

// Resolve checks the benchmark, reconciles the two controller
// spellings, resolves the registry and derives the content address.
// Its errors list the valid sets (sorted): the one source of truth for
// CLI usage errors and HTTP 400 bodies. A key error stays in the value
// and fails the run that needs the key.
func (r RunRequest) Resolve() (Resolved, error) {
	r = r.Normalize()
	b, ok := workload.Lookup(r.Benchmark)
	if !ok {
		return Resolved{}, fmt.Errorf("unknown benchmark %q (see mcdbench -exp table5 for the catalog)", r.Benchmark)
	}
	if r.Controller != "" && r.Config != "" && r.Controller != r.Config {
		return Resolved{}, fmt.Errorf("controller %q and config %q disagree (set one; they are the same field)", r.Controller, r.Config)
	}
	res, err := control.Resolve(r.ControllerName(), control.Params(r.Params))
	if err != nil {
		return Resolved{}, err
	}
	fid, err := sim.ParseFidelity(r.Fidelity)
	if err != nil {
		return Resolved{}, err
	}
	cfg := pipeline.DefaultConfig()
	cfg.SlewNsPerMHz = *r.SlewNsPerMHz
	v := Resolved{req: r, res: res, run: control.Run{
		Config:         cfg,
		Profile:        b.Profile,
		Window:         r.Window,
		Warmup:         *r.Warmup,
		IntervalLength: *r.Interval,
		Name:           r.ControllerName(),
		Fidelity:       fid,
		SampleEvery:    r.SampleEvery,
		Store:          r.store,
	}}
	v.Key, v.keyErr = res.Key(v.run)
	return v, nil
}

// Request returns the normalized request: what a journal stores and a
// fabric worker receives.
func (r Resolved) Request() RunRequest { return r.req }

// Spec builds the full simulation spec, performing any compound
// preparation (an off-line schedule search).
func (r Resolved) Spec() (sim.Spec, error) { return r.res.Spec(r.run) }

// Validate is Resolve's error alone.
func (r RunRequest) Validate() error {
	_, err := r.Resolve()
	return err
}

// Spec is Resolve followed by Resolved.Spec.
func (r RunRequest) Spec() (sim.Spec, error) {
	v, err := r.Resolve()
	if err != nil {
		return sim.Spec{}, err
	}
	return v.Spec()
}

// Key returns the request's content address in the result store, or
// why it has none (resultcache.ErrUncacheable for an opaque controller).
func (r RunRequest) Key() (string, error) {
	v, err := r.Resolve()
	if err == nil {
		err = v.keyErr
	}
	return v.Key, err
}

// RunCachedBytes is Resolve followed by Resolved.Run with no context and
// no hooks — the call perfbench's reference regeneration makes.
func (r RunRequest) RunCachedBytes(c *resultcache.Cache) (body []byte, hit bool, err error) {
	v, err := r.Resolve()
	if err != nil {
		return nil, false, err
	}
	return v.Run(context.Background(), c, RunHooks{})
}

// ParseParams parses the CLI spelling of controller parameters —
// "name=value" pairs separated by commas, e.g. "kp=0.08,setpoint=3" —
// into the map the JSON "params" field carries. An empty string is a
// nil map.
func ParseParams(s string) (map[string]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := map[string]float64{}
	for _, pair := range strings.Split(s, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return nil, fmt.Errorf("bad parameter %q (want name=value)", pair)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value for parameter %q: %v", name, err)
		}
		out[name] = v
	}
	return out, nil
}

// ParseValues parses the CLI spelling of a sweep's x-axis — numbers
// separated by commas, e.g. "0.02,0.05,0.1" — into the JSON "values"
// field. Blank entries are skipped; an empty string is nil.
func ParseValues(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad swept value %q: %v", f, err)
		}
		out = append(out, v)
	}
	return out, nil
}
