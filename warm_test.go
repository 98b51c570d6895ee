package mcd_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"mcd"
	"mcd/internal/sim"
)

// TestWarmupSnapshotByteIdentity is the checkpointed-warmup contract,
// registry-driven like the session byte-identity test: for every
// registered controller, a sampled run that restores the shared warm
// snapshot produces a Result byte-identical to one that simulates its
// own warmup prefix. The first reused run of each benchmark builds the
// snapshot (single-flight) and later ones restore it from the cache, so
// the loop exercises both the capture and the restore path; byte
// equality of the JSON encodings is the same identity bar the caching
// and session pins use. The second interval length is shorter than the
// retire width, where the last warmup edge can retire past the snapshot
// boundary's headroom.
func TestWarmupSnapshotByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates the full registry twice")
	}
	bench, ok := mcd.LookupBenchmark("adpcm")
	if !ok {
		t.Fatal("adpcm missing from catalog")
	}
	cfg := mcd.DefaultConfig()
	cfg.SlewNsPerMHz = 4.91
	params := map[string]mcd.ControllerParams{
		"dynamic":   {"iters": 2},
		"dynamic-1": {"iters": 2},
		"dynamic-5": {"iters": 2},
	}

	// The reuse switch is process-global, so the registry is walked
	// serially: straight warmup first, then the warm-restored replay.
	defer sim.SetWarmReuse(true)
	for _, interval := range []uint64{500, 4} {
		run := mcd.ControllerRun{
			Config:         cfg,
			Profile:        bench.Profile,
			Window:         20_000,
			Warmup:         8_000,
			IntervalLength: interval,
			Fidelity:       sim.FidelitySampled,
		}
		for _, name := range mcd.ControllerNames() {
			spec, err := mcd.ControllerSpec(name, params[name], run)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sim.SetWarmReuse(false)
			want, err := json.Marshal(mcd.Run(spec))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			sim.SetWarmReuse(true)
			for pass := 0; pass < 2; pass++ { // build-then-restore, then pure restore
				spec2, err := mcd.ControllerSpec(name, params[name], run)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, err := json.Marshal(mcd.Run(spec2))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s, interval %d (pass %d): warm-restored run differs from straight run\nstraight: %s\nrestored: %s",
						name, interval, pass, want, got)
				}
			}
		}
	}
}
