package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"mcd/internal/sim"
)

// TestGridSimulatesEachDistinctRunOnce pins how many simulations a
// one-benchmark exact Table 6 grid performs. The row stores make every
// distinct sub-run of a row's compound searches simulate once: both
// off-line searches profile one all-max baseline, and the three Global(·)
// searches share probes. The eight cells' own runs are simulated as
// before. A change that loses that sharing (or simulates more) fails
// here. The count comes from the simulated instructions — every exact
// run retires its warmup and window, give or take one retire group — and
// must match the harness's own log line.
func TestGridSimulatesEachDistinctRunOnce(t *testing.T) {
	o := QuickOptions()
	o.Window, o.Warmup = 8_000, 4_000
	o.Benchmarks = []string{"adpcm"}
	o.Workers = 2
	var log bytes.Buffer
	o.Log = &log

	i0 := sim.SimulatedInstructions()
	o.RunAll()
	instr := sim.SimulatedInstructions() - i0
	per := o.Window + o.Warmup
	runs := (instr + per/2) / per

	// Without the row stores the grid simulates all 33 requested
	// sub-runs, 41 runs in all.
	const cells, wantMisses, requested = 8, 22, 33
	const wantRuns = cells + wantMisses
	if runs != wantRuns {
		t.Errorf("grid simulated %d runs (%d instructions), want %d", runs, instr, wantRuns)
	}
	if line := fmt.Sprintf("compound searches simulated %d of %d requested sub-runs\n", wantMisses, requested); !strings.Contains(log.String(), line) {
		t.Errorf("log lacks %q:\n%s", line, log.String())
	}
}
