package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mcd/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// grid returns the 6-benchmark equivalence-test configuration: small
// enough for -race CI (the full grid is simulated nine times across
// these tests), large enough that every controller actually retargets.
func grid() Options {
	o := DefaultOptions()
	o.Window = 6_000
	o.Warmup = 3_000
	o.IntervalLength = 500
	o.OfflineIters = 2
	o.Benchmarks = []string{"adpcm", "epic", "mesa", "em3d", "mcf", "gzip"}
	return o
}

// TestRunAllDeterministicAcrossWorkers is the harness-level determinism
// equivalence test: the 6-benchmark comparison grid must produce
// identical stats.Result values — and therefore byte-identical tables —
// through the serial path (one worker) and through the pool at 4 and 8
// workers. Any divergence means two simulations shared mutable state.
func TestRunAllDeterministicAcrossWorkers(t *testing.T) {
	serialOpts := grid()
	serialOpts.Workers = 1
	serial := serialOpts.RunAll()
	if len(serial) != 6 {
		t.Fatalf("grid ran %d benchmarks, want 6", len(serial))
	}

	// A one-benchmark grid must agree with the same row of the batch.
	oneOpts := serialOpts
	oneOpts.Benchmarks = []string{serial[2].Bench.Name}
	if one := oneOpts.RunAll(); len(one) != 1 || !reflect.DeepEqual(one[0], serial[2]) {
		t.Errorf("one-row grid of %s diverged from RunAll row", serial[2].Bench.Name)
	}

	for _, workers := range []int{4, 8} {
		o := grid()
		o.Workers = workers
		got := o.RunAll()
		for i := range got {
			if !reflect.DeepEqual(got[i], serial[i]) {
				t.Errorf("workers=%d: benchmark %s diverged from serial run",
					workers, serial[i].Bench.Name)
			}
		}
		for name, f := range map[string]func([]Comparison) string{
			"table6": Table6, "fig4": Fig4, "headline": Headline,
		} {
			if f(got) != f(serial) {
				t.Errorf("workers=%d: %s output not byte-identical to serial output", workers, name)
			}
		}
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	mk := func(workers int) []SweepPoint {
		o := grid()
		o.Benchmarks = []string{"adpcm", "mcf"}
		o.Workers = workers
		return runFigure(t, o, "decay", []float64{0.00175, 0.0125})
	}
	serial := mk(1)
	for _, workers := range []int{4, 8} {
		if got := mk(workers); !reflect.DeepEqual(got, serial) {
			t.Errorf("workers=%d: sweep diverged from serial sweep", workers)
		}
	}
}

// TestTable6GoldenStable snapshots a small fixed-Options Table 6 and
// asserts it is stable across repeated runs and across worker counts; the
// snapshot is also pinned in testdata (refresh with -update) so an
// accidental change to the simulator or the formatter shows up as a
// diff, not silently.
func TestTable6GoldenStable(t *testing.T) {
	mk := func(workers int) string {
		o := grid()
		o.Benchmarks = []string{"adpcm", "mcf"}
		o.Workers = workers
		return Table6(o.RunAll())
	}
	first := mk(1)
	for run, workers := range []int{4, 8} {
		if got := mk(workers); got != first {
			t.Fatalf("run %d (workers=%d) changed Table 6:\n--- first\n%s\n--- got\n%s",
				run, workers, first, got)
		}
	}

	golden := filepath.Join("testdata", "table6_small.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(first), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with: go test ./internal/bench -run Golden -update): %v", err)
	}
	if !bytes.Equal(want, []byte(first)) {
		t.Errorf("Table 6 deviates from golden snapshot (refresh with -update if intended):\n--- golden\n%s\n--- got\n%s",
			want, first)
	}
	if !strings.Contains(first, "averages over 2 benchmarks") {
		t.Errorf("unexpected table header:\n%s", first)
	}
}

func TestSplitNames(t *testing.T) {
	for in, want := range map[string][]string{
		"adpcm":          {"adpcm"},
		" adpcm , mcf ":  {"adpcm", "mcf"},
		",adpcm,,mcf,":   {"adpcm", "mcf"},
		"":               nil,
		"  , ,\t":        nil,
		"epic.decode,gs": {"epic.decode", "gs"},
	} {
		if got := SplitNames(in); !reflect.DeepEqual(got, want) {
			t.Errorf("SplitNames(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestTraceManyOrderAndErrors(t *testing.T) {
	o := grid()
	o.Benchmarks = nil
	o.Workers = 4
	names := []string{"mcf", "adpcm", "epic"}
	res, err := o.TraceMany(names)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		b, _ := workload.Lookup(names[i])
		if r.Benchmark != b.Profile.Name {
			t.Errorf("result %d is %q, want %q (order must match submission)", i, r.Benchmark, b.Profile.Name)
		}
		if len(r.Intervals) == 0 {
			t.Errorf("%s trace recorded no intervals", names[i])
		}
	}
	if _, err := o.TraceMany([]string{"adpcm", "nonesuch"}); err == nil {
		t.Error("unknown benchmark must fail before any run")
	}
}
