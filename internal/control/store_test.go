package control

import (
	"bytes"
	"sync"
	"testing"

	"mcd/internal/clock"
	"mcd/internal/pipeline"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/stats"
)

// searchParams keeps the compound searches cheap; schemas without the
// parameter get no override.
func searchParams(name string) Params {
	if reg, _ := Lookup(name); reg.SearchItersParam != "" {
		return Params{reg.SearchItersParam: 2}
	}
	return nil
}

func encode(t *testing.T, r stats.Result) []byte {
	t.Helper()
	b, err := resultcache.EncodeResult(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Recording intervals must be observational: Run.Simulate shares one
// recorded run between callers that did and did not ask for intervals,
// and hands the latter the recorded result with Intervals dropped. For
// every registered controller, at both fidelity tiers, that view must be
// byte-identical to the unrecorded run.
func TestRecordingIsObservational(t *testing.T) {
	for _, fidelity := range []string{sim.FidelityExact, sim.FidelitySampled} {
		run := testRun(t)
		// Long enough for the synchronous machine's default-length
		// exact intervals to record something.
		run.Window = 25_000
		run.Fidelity = fidelity
		for _, name := range Names() {
			res, err := Resolve(name, searchParams(name))
			if err != nil {
				t.Fatal(err)
			}
			// Controllers are stateful: one spec per run.
			plain, err := res.Spec(run)
			if err != nil {
				t.Fatal(err)
			}
			recorded, err := res.Spec(run)
			if err != nil {
				t.Fatal(err)
			}
			recorded.RecordIntervals = true
			want := encode(t, sim.Run(plain))
			r := sim.Run(recorded)
			if len(r.Intervals) == 0 {
				t.Errorf("%s/%s: recorded run has no intervals", fidelity, name)
			}
			r.Intervals = nil
			if got := encode(t, r); !bytes.Equal(got, want) {
				t.Errorf("%s/%s: recording changed the result:\nplain    %s\nrecorded %s", fidelity, name, want, got)
			}
		}
	}
}

// Concurrent requests for one computation through a shared Store
// simulate it once, and every caller still gets exactly what its own
// sim.Run returns: its own label, and intervals only if it asked.
func TestSimulateSharesRuns(t *testing.T) {
	run := testRun(t)
	res, err := Resolve("attack-decay", nil)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name   string
		record bool
	}{{"", false}, {"a", false}, {"a", true}, {"b", true}, {"b", false}, {"c", false}}
	spec := func(i int) sim.Spec {
		s, err := res.Spec(run)
		if err != nil {
			t.Fatal(err)
		}
		s.Name, s.RecordIntervals = variants[i].name, variants[i].record
		return s
	}

	shared := run
	shared.Store, _ = resultcache.New(resultcache.Options{})
	got := make([]stats.Result, len(variants))
	specs := make([]sim.Spec, len(variants))
	for i := range variants {
		specs[i] = spec(i)
	}
	i0 := sim.SimulatedInstructions()
	var wg sync.WaitGroup
	for i := range variants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = shared.Simulate(specs[i])
		}()
	}
	wg.Wait()
	sharedInstr := sim.SimulatedInstructions() - i0

	i0 = sim.SimulatedInstructions()
	want0 := sim.Run(spec(0))
	if one := sim.SimulatedInstructions() - i0; sharedInstr != one {
		t.Errorf("%d concurrent requests simulated %d instructions, one run simulates %d", len(variants), sharedInstr, one)
	}
	if st := shared.Store.Stats(); st.Misses != 1 || st.Hits() != uint64(len(variants)-1) {
		t.Errorf("store counted %d misses and %d hits, want 1 and %d", st.Misses, st.Hits(), len(variants)-1)
	}
	for i, v := range variants {
		want := want0
		if i > 0 {
			want = sim.Run(spec(i))
		}
		if !bytes.Equal(encode(t, got[i]), encode(t, want)) {
			t.Errorf("variant %+v: shared result differs from its own sim.Run", v)
		}
	}
}

// opaque is a controller without a CacheKey: it cannot be keyed, so a
// shared Store must run it directly and store nothing.
type opaque struct{}

func (opaque) Name() string { return "opaque" }
func (opaque) Observe(pipeline.IntervalView) [clock.NumControllable]float64 {
	return [clock.NumControllable]float64{}
}

func TestSimulateRunsOpaqueSpecsDirectly(t *testing.T) {
	run := testRun(t)
	run.Store, _ = resultcache.New(resultcache.Options{})
	s := sim.Spec{Config: run.Config, Profile: run.Profile, Window: run.Window, Warmup: run.Warmup,
		IntervalLength: run.IntervalLength, Controller: opaque{}, Name: "opaque"}
	want := encode(t, sim.Run(s))
	if got := encode(t, run.Simulate(s)); !bytes.Equal(got, want) {
		t.Error("opaque spec through a Store differs from sim.Run")
	}
	if st := run.Store.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Errorf("opaque spec reached the store: %+v", st)
	}
}
