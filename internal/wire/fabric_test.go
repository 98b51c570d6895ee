package wire_test

import (
	"context"
	"sync"
	"testing"

	"mcd/internal/bench"
	"mcd/internal/resultcache"
	"mcd/internal/sim"
	"mcd/internal/wire"
)

// TestCellRequestSharesAddress is the fabric's addressing pin: every
// cell the harness dispatches converts (CellRequest) into a RunRequest
// whose content address equals the key the harness computed itself, so
// a worker-computed cell lands in the shared store under the exact key
// every other execution path probes. The grid runs once with the Exec
// hook dispatching to a local executor and once without; the rendered
// table must not notice.
func TestCellRequestSharesAddress(t *testing.T) {
	grid := func() bench.Options {
		o := bench.DefaultOptions()
		o.Window = 6_000
		o.Warmup = 3_000
		o.IntervalLength = 500
		o.OfflineIters = 2
		o.Workers = 4
		o.Benchmarks = []string{"adpcm", "mcf"}
		return o
	}
	local := grid()
	want := bench.Table6(local.RunAll())

	var mu sync.Mutex
	cells := 0
	hooked := grid()
	hooked.Exec = wire.ExecAdapter(func(ctx context.Context, key string, req wire.RunRequest) ([]byte, error) {
		mu.Lock()
		cells++
		mu.Unlock()
		run, err := req.Resolve()
		if err != nil {
			return nil, err
		}
		body, _, err := run.Run(ctx, nil, wire.RunHooks{})
		return body, err
	})
	got := bench.Table6(hooked.RunAll())

	if got != want {
		t.Fatalf("dispatched grid renders differently:\n got:\n%s\nwant:\n%s", got, want)
	}
	if cells == 0 {
		t.Fatal("Exec hook never fired — the grid bypassed dispatch")
	}
}

// A grid whose cells go through the Exec hook to an in-process executor
// simulates exactly the runs of the same grid computed locally: the
// cell's row store rides in its request, so the compound searches share
// their sub-runs either way, and the cells' own runs are simulated in
// both. Benchmarks that compare a traced (dispatched) grid's simulated
// instructions with an untraced one's depend on it.
func TestDispatchedGridSimulatesTheSameRuns(t *testing.T) {
	grid := func() bench.Options {
		o := bench.QuickOptions()
		o.Window, o.Warmup = 8_000, 4_000
		o.Benchmarks = []string{"adpcm"}
		o.Workers = 2
		return o
	}
	i0 := sim.SimulatedInstructions()
	want := bench.Table6(grid().RunAll())
	local := sim.SimulatedInstructions() - i0

	hooked := grid()
	hooked.Exec = wire.ExecAdapter(func(_ context.Context, _ string, req wire.RunRequest) ([]byte, error) {
		spec, err := req.Spec()
		if err != nil {
			return nil, err
		}
		return resultcache.EncodeResult(sim.Run(spec))
	})
	i0 = sim.SimulatedInstructions()
	got := bench.Table6(hooked.RunAll())
	dispatched := sim.SimulatedInstructions() - i0

	if got != want {
		t.Fatalf("dispatched grid renders differently:\n got:\n%s\nwant:\n%s", got, want)
	}
	if dispatched != local {
		t.Errorf("dispatched grid simulated %d instructions, local grid %d", dispatched, local)
	}
}
