// Public-API tests and benchmarks for mcd.RunBatch: determinism across
// worker counts, compound (Do) requests, request validation, and the
// testing.B speedup benchmark comparing worker counts on a fixed grid
// (on an N-core machine the workers=N case should approach N× the
// workers=1 throughput; the results themselves are identical).
package mcd_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mcd"
)

// batchRequests builds a benchmark × {mcd-base, attack-decay} grid as
// RunBatch requests. Controllers are stateful, so every call constructs
// fresh ones.
func batchRequests(benchmarks []string, window uint64) []mcd.RunRequest {
	var reqs []mcd.RunRequest
	for _, name := range benchmarks {
		b, ok := mcd.LookupBenchmark(name)
		if !ok {
			panic("unknown benchmark " + name)
		}
		base := mcd.Spec{
			Config:         mcd.DefaultConfig(),
			Profile:        b.Profile,
			Window:         window,
			Warmup:         window / 2,
			IntervalLength: 500,
			Name:           "mcd-base",
		}
		ad := base
		ad.Controller = mcd.NewAttackDecay(mcd.DefaultParams())
		ad.Name = "attack-decay"
		reqs = append(reqs,
			mcd.RunRequest{Name: name + "/mcd-base", Spec: &base},
			mcd.RunRequest{Name: name + "/attack-decay", Spec: &ad},
		)
	}
	return reqs
}

var sixBenchmarks = []string{"adpcm", "epic", "mesa", "em3d", "mcf", "gzip"}

func TestRunBatchMatchesSerial(t *testing.T) {
	serialReqs := batchRequests(sixBenchmarks, 10_000)
	serial := make([]mcd.Result, len(serialReqs))
	for i, r := range serialReqs {
		serial[i] = mcd.Run(*r.Spec)
	}

	for _, workers := range []int{1, 4, 8} {
		reqs := batchRequests(sixBenchmarks, 10_000)
		got, err := mcd.RunBatch(context.Background(), reqs, mcd.BatchOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, g := range got {
			if g.Err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, g.Name, g.Err)
			}
			if g.Name != reqs[i].Name {
				t.Errorf("workers=%d: result %d named %q, want %q", workers, i, g.Name, reqs[i].Name)
			}
			if !reflect.DeepEqual(g.Result, serial[i]) {
				t.Errorf("workers=%d: %s diverged from serial mcd.Run", workers, g.Name)
			}
		}
	}
}

// TestRunBatchCompoundRequests runs the paper's compound comparators —
// an off-line schedule search and a Global(·) match — as Do requests,
// each resolved through the controller registry inside its closure.
func TestRunBatchCompoundRequests(t *testing.T) {
	b, _ := mcd.LookupBenchmark("adpcm")
	run := mcd.ControllerRun{
		Config: mcd.DefaultConfig(), Profile: b.Profile,
		Window: 8_000, Warmup: 4_000, IntervalLength: 500,
	}
	do := func(name string, p mcd.ControllerParams) func(context.Context) (mcd.Result, error) {
		return func(context.Context) (mcd.Result, error) {
			spec, err := mcd.ControllerSpec(name, p, run)
			if err != nil {
				return mcd.Result{}, err
			}
			return mcd.Run(spec), nil
		}
	}
	reqs := []mcd.RunRequest{
		{Name: "adpcm/offline", Do: do("dynamic", mcd.ControllerParams{"target": 0.05, "iters": 2})},
		{Name: "adpcm/global", Do: do("global", mcd.ControllerParams{"deg": 0.05})},
	}
	res, err := mcd.RunBatch(context.Background(), reqs, mcd.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Name, r.Err)
		}
		if r.Result.Instructions == 0 {
			t.Errorf("%s retired no instructions", r.Name)
		}
	}
}

func TestRunBatchValidatesRequests(t *testing.T) {
	spec := mcd.Spec{}
	do := func(context.Context) (mcd.Result, error) { return mcd.Result{}, nil }
	for _, bad := range []mcd.RunRequest{
		{Name: "neither"},
		{Name: "both", Spec: &spec, Do: do},
	} {
		if _, err := mcd.RunBatch(context.Background(), []mcd.RunRequest{bad}, mcd.BatchOptions{}); err == nil {
			t.Errorf("request %q must be rejected", bad.Name)
		} else if !strings.Contains(err.Error(), bad.Name) {
			t.Errorf("error for %q does not name the request: %v", bad.Name, err)
		}
	}
}

func TestRunBatchProgress(t *testing.T) {
	reqs := batchRequests([]string{"adpcm"}, 4_000)
	var calls int
	_, err := mcd.RunBatch(context.Background(), reqs, mcd.BatchOptions{
		Workers: 2,
		Progress: func(done, total int, name string) {
			calls++
			if total != len(reqs) {
				t.Errorf("Progress total = %d, want %d", total, len(reqs))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(reqs) {
		t.Errorf("Progress called %d times, want %d", calls, len(reqs))
	}
}

// BenchmarkRunBatchWorkers measures the fan-out speedup on a fixed
// 6-benchmark × 2-configuration grid. Compare the workers=1 and
// workers=N ns/op figures: on a 4-core machine the acceptance target is
// ≥ 2.5× (run with `go test -bench RunBatchWorkers -benchtime 3x`).
func BenchmarkRunBatchWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reqs := batchRequests(sixBenchmarks, 40_000)
				res, err := mcd.RunBatch(context.Background(), reqs, mcd.BatchOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}
