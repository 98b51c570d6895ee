package main

import "testing"

// exactCounts are the per-layer values that must repeat exactly between
// two runs of one workload with one seed.
var exactCounts = []string{
	"pipeline.sim_instructions",
	"journal.appends_per_op",
	"resultcache.mem_hits",
	"resultcache.disk_hits",
	"resultcache.evictions",
	"fabric.dispatches",
	"fabric.hedges",
	"fabric.requeues",
	"sim.warm_keys",
	"fidelity_err_pct",
}

// TestSelf runs every workload at a tiny size: two traced runs must
// agree on every exact count, and a run with one op's output corrupted
// before its check must report exactly that op as failed.
func TestSelf(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"exact-miss", "cache-hit", "fabric-cells", "sampled-grid"} {
		t.Run(name, func(t *testing.T) {
			run := workloads[name]
			var first map[string]metric
			for r := 0; r < 2; r++ {
				rep, err := run(config{seed: 5, seconds: 1, trace: true, dir: t.TempDir(), corrupt: -1})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Failed != 0 {
					t.Fatalf("run %d: %d of %d ops failed", r, rep.Failed, rep.Attempted)
				}
				if first == nil {
					first = rep.Metrics
					continue
				}
				for _, m := range exactCounts {
					if a, b := first[m].Value, rep.Metrics[m].Value; a != b {
						t.Errorf("%s: %v, then %v", m, a, b)
					}
				}
			}
			rep, err := run(config{seed: 5, seconds: 1, dir: t.TempDir(), corrupt: 0})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 1 || rep.Correct {
				t.Fatalf("one corrupted op: %d failed, correct=%v; want 1 failed and an incorrect run", rep.Failed, rep.Correct)
			}
		})
	}
}
