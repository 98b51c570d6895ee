package sim_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mcd/internal/control"
	"mcd/internal/pipeline"
	"mcd/internal/sim"
	"mcd/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestSampledResultDigestsGolden pins the sampled tier's output bytes:
// the SHA-256 of each run's JSON Result encoding, recorded intervals
// included so every Estimated frame is covered. Table 6's rounded text
// cannot see a last-bit change; this golden can. The intervals are all
// at least the retire width, so the cases sit clear of the
// short-interval boundary rules. Regenerate with:
// go test ./internal/sim -run DigestsGolden -update
func TestSampledResultDigestsGolden(t *testing.T) {
	type tc struct {
		bench, ctrl string
		interval    uint64
		every       int
	}
	var cases []tc
	for _, b := range []string{"adpcm", "mcf", "epic.decode"} {
		for _, c := range []string{"attack-decay", "pi", "mcd"} {
			cases = append(cases, tc{b, c, 500, 0})
		}
	}
	cases = append(cases, tc{"em3d", "attack-decay", 250, 3})

	var got bytes.Buffer
	for _, k := range cases {
		b, ok := workload.Lookup(k.bench)
		if !ok {
			t.Fatalf("%s missing", k.bench)
		}
		cfg := pipeline.DefaultConfig()
		cfg.SlewNsPerMHz = 4.91
		r, err := control.Resolve(k.ctrl, nil)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := r.Spec(control.Run{
			Config:         cfg,
			Profile:        b.Profile,
			Window:         40_000,
			Warmup:         10_000,
			IntervalLength: k.interval,
			Fidelity:       sim.FidelitySampled,
			SampleEvery:    k.every,
		})
		if err != nil {
			t.Fatal(err)
		}
		spec.RecordIntervals = true
		res := sim.Run(spec)
		if res.SampledIntervals == 0 {
			t.Errorf("%s/%s: no interval was fast-forwarded; the case pins nothing of the sampled tier", k.bench, k.ctrl)
		}
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%s %s iv=%d every=%d %x\n", k.bench, k.ctrl, k.interval, k.every, sha256.Sum256(enc))
	}

	golden := filepath.Join("testdata", "sampled_digests.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with: go test ./internal/sim -run DigestsGolden -update): %v", err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Errorf("sampled results deviate from the golden digests (refresh with -update if intended):\n--- golden\n%s--- got\n%s",
			want, got.Bytes())
	}
}
