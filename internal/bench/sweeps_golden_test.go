package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"mcd/internal/clock"
)

// TestSweepsGoldenStable pins the paper's four sensitivity sweeps
// (Figures 5–7) at their published value sets, one registry-generic pi
// sweep and one Figure 2/3 interval trace at a small scale, so a change
// to how the harness builds sweep or trace cells shows up as a diff
// (refresh with -update if intended).
func TestSweepsGoldenStable(t *testing.T) {
	o := grid()
	o.Benchmarks = []string{"adpcm", "mcf"}

	var out bytes.Buffer
	for _, fig := range []string{"target", "decay", "reaction", "deviation"} {
		out.WriteString(FormatSweep("sweep-"+fig, fig, runFigure(t, o, fig, nil)) + "\n")
	}
	pts, err := o.SweepController("pi", "kp", []float64{0.02, 0.05, 0.1}, map[string]float64{"setpoint": 3})
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(FormatControllerSweep("sweep-controller pi kp", "kp", pts) + "\n")
	tr, err := o.TraceMany([]string{"adpcm"})
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(FigureCSV(tr[0], clock.Integer))

	golden := filepath.Join("testdata", "sweeps_small.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with: go test ./internal/bench -run SweepsGolden -update): %v", err)
	}
	if !bytes.Equal(want, out.Bytes()) {
		t.Errorf("sweeps/trace deviate from golden snapshot (refresh with -update if intended):\n--- golden\n%s\n--- got\n%s",
			want, out.Bytes())
	}
}

// runFigure runs one figure of PaperSweeps over values (nil: the
// figure's published set), the call internal/wire makes for the
// figure's sweep-* experiment.
func runFigure(t testing.TB, o Options, fig string, values []float64) []SweepPoint {
	t.Helper()
	row := PaperSweeps[fig]
	if values == nil {
		values = row.Values
	}
	pts, err := o.SweepController("attack-decay", row.Param, values, row.Fixed)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}
