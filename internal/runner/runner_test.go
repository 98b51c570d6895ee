package runner_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mcd/internal/core"
	"mcd/internal/pipeline"
	"mcd/internal/runner"
	"mcd/internal/sim"
	"mcd/internal/stats"
	"mcd/internal/workload"
)

// gridSpecs builds a small benchmark × configuration grid: each of six
// benchmarks under no controller and under Attack/Decay.
func gridSpecs(window uint64) (names []string, specs []sim.Spec) {
	cfg := pipeline.DefaultConfig()
	for _, bn := range []string{"adpcm", "epic", "mesa", "em3d", "mcf", "gzip"} {
		b, ok := workload.Lookup(bn)
		if !ok {
			panic("unknown benchmark " + bn)
		}
		for _, c := range []string{"mcd-base", "attack-decay"} {
			var ctrl pipeline.Controller
			if c == "attack-decay" {
				ctrl = core.NewAttackDecay(core.DefaultParams())
			}
			names = append(names, bn+"/"+c)
			specs = append(specs, sim.Spec{
				Config:         cfg,
				Profile:        b.Profile,
				Window:         window,
				Warmup:         window / 2,
				IntervalLength: 500,
				Controller:     ctrl,
				Name:           c,
			})
		}
	}
	return names, specs
}

// TestBatchMatchesSerial is the determinism equivalence test of the
// runner layer: a 6-benchmark grid run serially through sim.Run must be
// identical — every stats.Result field — to the pool at 1, 4 and 8
// workers. A mismatch means simulations share hidden mutable state.
// specTask adapts one sim.Spec to a Task. The spec is captured by value,
// so a caller may reuse and mutate a loop variable.
func specTask(name string, spec sim.Spec) runner.Task[stats.Result] {
	return runner.Task[stats.Result]{Name: name, Run: func(context.Context) (stats.Result, error) {
		return sim.Run(spec), nil
	}}
}

func TestBatchMatchesSerial(t *testing.T) {
	names, specs := gridSpecs(12_000)

	serial := make([]stats.Result, len(specs))
	for i, s := range specs {
		serial[i] = sim.Run(s)
	}

	for _, workers := range []int{1, 4, 8} {
		// Controllers are stateful: rebuild the grid so each batch gets
		// fresh ones, exactly as a caller would.
		names2, specs2 := gridSpecs(12_000)
		tasks := make([]runner.Task[stats.Result], len(specs2))
		for i := range specs2 {
			tasks[i] = specTask(names2[i], specs2[i])
		}
		got, err := runner.Map(context.Background(), tasks, runner.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(serial) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(serial))
		}
		for i := range got {
			if got[i].Err != nil {
				t.Fatalf("workers=%d: %s: %v", workers, got[i].Name, got[i].Err)
			}
			if !reflect.DeepEqual(got[i].Value, serial[i]) {
				t.Errorf("workers=%d: %s diverged from serial run:\nserial:   %+v\nparallel: %+v",
					workers, names[i], serial[i], got[i].Value)
			}
		}
	}
}

func TestMapPreservesSubmissionOrder(t *testing.T) {
	const n = 100
	tasks := make([]runner.Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = runner.Task[int]{Name: fmt.Sprint(i), Run: func(context.Context) (int, error) {
			if i%7 == 0 {
				time.Sleep(time.Millisecond) // shuffle completion order
			}
			return i * i, nil
		}}
	}
	outs, err := runner.Map(context.Background(), tasks, runner.Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Value != i*i || o.Name != fmt.Sprint(i) {
			t.Fatalf("outcome %d = %+v, want value %d", i, o, i*i)
		}
	}
}

// TestMapStress hammers the pool with dozens of concurrent small
// simulation batches; run under -race it is the data-race canary for the
// whole sim stack.
func TestMapStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	b, _ := workload.Lookup("adpcm")
	var wg sync.WaitGroup
	for batch := 0; batch < 8; batch++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tasks := make([]runner.Task[stats.Result], 6)
			for i := range tasks {
				tasks[i] = specTask(fmt.Sprintf("adpcm/%d", i), sim.Spec{
					Config:         pipeline.DefaultConfig(),
					Profile:        b.Profile,
					Window:         4_000,
					IntervalLength: 500,
					Controller:     core.NewAttackDecay(core.DefaultParams()),
					Name:           "stress",
				})
			}
			outs, err := runner.Map(context.Background(), tasks, runner.Options{Workers: 4})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 1; i < len(outs); i++ {
				if !reflect.DeepEqual(outs[i].Value, outs[0].Value) {
					t.Errorf("identical specs produced different results")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMapProgressCallback(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	tasks := make([]runner.Task[int], 17)
	for i := range tasks {
		tasks[i] = runner.Task[int]{Name: "t", Run: func(context.Context) (int, error) { return 0, nil }}
	}
	_, err := runner.Map(context.Background(), tasks, runner.Options{
		Workers: 4,
		OnDone: func(done, total int, name string) {
			mu.Lock()
			defer mu.Unlock()
			if total != len(tasks) || name != "t" {
				t.Errorf("OnDone(%d, %d, %q)", done, total, name)
			}
			seen = append(seen, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(tasks) {
		t.Fatalf("OnDone called %d times, want %d", len(seen), len(tasks))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("done counts not strictly increasing: %v", seen)
		}
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	release := make(chan struct{})
	tasks := make([]runner.Task[int], 50)
	for i := range tasks {
		i := i
		tasks[i] = runner.Task[int]{Name: fmt.Sprint(i), Run: func(ctx context.Context) (int, error) {
			started.Add(1)
			<-release
			return i, nil
		}}
	}
	done := make(chan struct{})
	var outs []runner.Outcome[int]
	var reported atomic.Int32
	var err error
	go func() {
		defer close(done)
		outs, err = runner.Map(ctx, tasks, runner.Options{
			Workers: 2,
			OnDone:  func(int, int, string) { reported.Add(1) },
		})
	}()
	for started.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	<-done

	if !errors.Is(err, context.Canceled) {
		t.Fatalf("runner.Map error = %v, want context.Canceled", err)
	}
	ran, cancelled := 0, 0
	for _, o := range outs {
		switch {
		case errors.Is(o.Err, context.Canceled):
			cancelled++
		default:
			ran++
		}
	}
	if cancelled == 0 {
		t.Error("no outcome reports cancellation")
	}
	if ran == 0 {
		t.Error("the already-started tasks should have completed")
	}
	if ran+cancelled != len(tasks) {
		t.Errorf("ran %d + cancelled %d != %d tasks", ran, cancelled, len(tasks))
	}
	// OnDone must count only tasks that actually executed, never the
	// cancelled ones.
	if int(reported.Load()) != ran {
		t.Errorf("OnDone reported %d tasks, want the %d that ran", reported.Load(), ran)
	}
}

func TestMapCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := []runner.Task[int]{{Name: "never", Run: func(context.Context) (int, error) {
		t.Error("task ran despite pre-cancelled context")
		return 0, nil
	}}}
	outs, err := runner.Map(ctx, tasks, runner.Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if !errors.Is(outs[0].Err, context.Canceled) || outs[0].Name != "never" {
		t.Fatalf("outcome = %+v", outs[0])
	}
}

// TestMapPanicPropagation: a panicking run must surface its name in a
// *runner.PanicError and must not kill the pool — every other task still runs.
func TestMapPanicPropagation(t *testing.T) {
	const n = 20
	tasks := make([]runner.Task[int], n)
	for i := range tasks {
		i := i
		tasks[i] = runner.Task[int]{Name: fmt.Sprintf("bench-%d", i), Run: func(context.Context) (int, error) {
			if i == 7 {
				panic("simulated pipeline bug")
			}
			return i, nil
		}}
	}
	outs, err := runner.Map(context.Background(), tasks, runner.Options{Workers: 3})
	if err != nil {
		t.Fatalf("panics must not abort the batch: %v", err)
	}
	for i, o := range outs {
		if i == 7 {
			var pe *runner.PanicError
			if !errors.As(o.Err, &pe) {
				t.Fatalf("task 7 error = %v, want *PanicError", o.Err)
			}
			if pe.Task != "bench-7" || !strings.Contains(pe.Error(), "bench-7") ||
				!strings.Contains(pe.Error(), "simulated pipeline bug") {
				t.Errorf("panic error lost the task name: %v", pe)
			}
			if len(pe.Stack) == 0 {
				t.Error("panic error lost the stack")
			}
			continue
		}
		if o.Err != nil || o.Value != i {
			t.Errorf("healthy task %d got outcome %+v", i, o)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	outs, err := runner.Map[int](context.Background(), nil, runner.Options{})
	if err != nil || len(outs) != 0 {
		t.Fatalf("runner.Map(nil) = %v, %v", outs, err)
	}
}
