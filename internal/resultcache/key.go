// Package resultcache is the content-addressed deterministic result
// store behind the serving layer (cmd/mcdserve) and the experiment
// harness's cell reuse: every simulation run is a pure function of its
// sim.Spec (DESIGN.md, "Runner determinism"), so a canonical, versioned
// encoding of the spec hashed with SHA-256 addresses a result that is
// byte-identical to a recompute. The store is two-tier — an in-memory
// LRU bounded by byte size over an optional on-disk directory with
// atomic writes — and de-duplicates concurrent identical requests with
// a single-flight table, so a flood of identical submissions costs one
// simulation.
package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"mcd/internal/clock"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// specKeyVersion prefixes every canonical spec encoding. Bump it
// whenever the encoding below changes meaning — in particular whenever
// sim.Spec, pipeline.Config, workload.Profile, workload.Phase or
// workload.Mix gain, lose or reinterpret a field — so stale disk
// entries from older binaries can never satisfy a new request. A guard
// test (TestKeyCoversEveryField) counts the fields of each struct and
// fails when one is added without updating the encoder and this
// version. See DESIGN.md, "Serving layer".
//
// v2: the controller registry (internal/control) made controller
// selection and parameters part of the addressed request surface —
// controller key material is now the registry's canonical parameter
// encoding (schema order, resolved defaults) rather than ad-hoc
// per-call construction, so v1 entries written by pre-registry binaries
// must never satisfy registry-era requests.
//
// v3: sim.Spec gained the fidelity tier (Fidelity, SampleEvery). The
// encoding writes a fidelity line unconditionally — normalized so ""
// and "exact" (with any SampleEvery) encode identically, and sampled's
// defaulted cadence encodes as its resolved value — which guarantees
// sampled results can never collide with exact ones, and v2 exact
// entries (which lack the line entirely) can never satisfy v3 requests.
const specKeyVersion = "mcd-spec-v3"

// ErrUncacheable reports a spec whose controller cannot be canonically
// encoded: caching it would require proving two opaque controller
// instances behave identically. Controllers opt in by implementing
// Keyer (AttackDecay, OfflineController and the registry's pi and coord
// controllers do).
var ErrUncacheable = errors.New("resultcache: controller does not implement CacheKey")

// Keyer is implemented by controllers that can describe their complete
// construction parameters as a canonical string. The key must determine
// the controller's behaviour from a fresh instance: two controllers
// with equal keys must produce identical frequency schedules when shown
// identical interval sequences. Stateful controllers satisfy this
// automatically under the runner purity contract (each run constructs
// its own instance).
type Keyer interface {
	CacheKey() string
}

// Float formats a float64 exactly (hexadecimal mantissa/exponent), for
// building canonical key material: every distinct value has one
// spelling and no precision is lost.
func Float(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// SpecKey returns the content address of a run: the SHA-256 of the
// canonical, versioned encoding of every field of the spec. It fails
// with ErrUncacheable when the controller does not implement Keyer.
func SpecKey(s sim.Spec) (string, error) {
	return SpecKeyExtra(s, "")
}

// SpecKeyExtra keys a compound experiment: a deterministic computation
// that is a pure function of a spec plus extra parameters the spec
// cannot express (an off-line schedule search's target, a GlobalMatch
// baseline). The extra string must canonically encode everything beyond
// the spec that determines the result.
func SpecKeyExtra(s sim.Spec, extra string) (string, error) {
	var b strings.Builder
	b.WriteString(specKeyVersion)
	b.WriteByte('\n')

	// pipeline.Config — every field, in declaration order.
	c := s.Config
	fmt.Fprintf(&b, "config|decode=%d|retire=%d|ialu=%d|imul=%d|falu=%d|fmul=%d|mem=%d",
		c.DecodeWidth, c.RetireWidth, c.IntALUs, c.IntMuls, c.FPALUs, c.FPMuls, c.MemPorts)
	fmt.Fprintf(&b, "|iiq=%d|fiq=%d|lsq=%d|rob=%d|iren=%d|fren=%d",
		c.IntIQSize, c.FPIQSize, c.LSQSize, c.ROBSize, c.IntRenameRegs, c.FPRenameRegs)
	fmt.Fprintf(&b, "|ialulat=%d|imullat=%d|falulat=%d|fmullat=%d|fdivlat=%d|l1lat=%d|l2lat=%d|misp=%d|memlat=%s",
		c.IntALULat, c.IntMulLat, c.FPALULat, c.FPMulLat, c.FPDivLat, c.L1Lat, c.L2Lat,
		c.MispredictPenalty, Float(c.MemLatPS))
	fmt.Fprintf(&b, "|maxf=%s|jitter=%s|sync=%s|slew=%s|single=%t|blk=%d|seed=%d\n",
		Float(c.MaxFreqMHz), Float(c.JitterPS), Float(c.SyncWindowPS), Float(c.SlewNsPerMHz),
		c.SingleClock, c.CacheBlockBytes, c.Seed)

	encodeProfile(&b, s.Profile)

	fmt.Fprintf(&b, "run|window=%d|warmup=%d|interval=%d|record=%t|name=%q|init=",
		s.Window, s.Warmup, s.IntervalLength, s.RecordIntervals, s.Name)
	for d := 0; d < clock.NumControllable; d++ {
		if d > 0 {
			b.WriteByte(',')
		}
		b.WriteString(Float(s.InitialFreqMHz[d]))
	}
	b.WriteByte('\n')

	// Fidelity, normalized: exact ignores SampleEvery (encoded as 0) and
	// sampled resolves its default cadence, so every spec spelling of the
	// same computation encodes identically and distinct computations
	// (exact vs any sampled cadence) never share a key.
	mode := s.Fidelity
	if mode == "" {
		mode = sim.FidelityExact
	}
	fmt.Fprintf(&b, "fidelity|mode=%q|sample=%d\n", mode, s.EffectiveSampleEvery())

	switch ctrl := s.Controller.(type) {
	case nil:
		b.WriteString("ctrl|none\n")
	case Keyer:
		fmt.Fprintf(&b, "ctrl|%q\n", ctrl.CacheKey())
	default:
		return "", fmt.Errorf("%w (%T)", ErrUncacheable, s.Controller)
	}

	if extra != "" {
		fmt.Fprintf(&b, "extra|%q\n", extra)
	}

	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:]), nil
}

func encodeProfile(b *strings.Builder, p workload.Profile) {
	fmt.Fprintf(b, "profile|name=%q|loop=%t|loopinstr=%d|seed=%d|phases=%d\n",
		p.Name, p.Loop, p.LoopInstr, p.Seed, len(p.Phases))
	for _, ph := range p.Phases {
		m := ph.Mix
		fmt.Fprintf(b, "phase|frac=%s|ws=%d|stride=%s|chase=%s|code=%d|sites=%d|rand=%s|bias=%d|dep=%s|dep2=%s",
			Float(ph.Frac), ph.WorkingSet, Float(ph.StrideFrac), Float(ph.ChaseFrac),
			ph.CodeBytes, ph.BranchSites, Float(ph.RandomSiteFrac), ph.BiasPeriod,
			Float(ph.DepMean), Float(ph.Dep2Prob))
		fmt.Fprintf(b, "|mix=%s,%s,%s,%s,%s,%s,%s,%s\n",
			Float(m.IntALU), Float(m.IntMul), Float(m.FPAdd), Float(m.FPMul),
			Float(m.FPDiv), Float(m.Load), Float(m.Store), Float(m.Branch))
	}
}

// EncodeResult renders a Result in the store's canonical byte encoding:
// compact JSON with a trailing newline. encoding/json is deterministic
// for a fixed struct (fields in declaration order, shortest
// round-tripping float spelling), so equal results always encode to
// equal bytes and the encoding round-trips exactly — the property the
// byte-identity guarantee rests on.
func EncodeResult(r stats.Result) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("resultcache: encode: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeResult parses the canonical encoding.
func DecodeResult(b []byte) (stats.Result, error) {
	var r stats.Result
	if err := json.Unmarshal(b, &r); err != nil {
		return stats.Result{}, fmt.Errorf("resultcache: decode: %w", err)
	}
	return r, nil
}
