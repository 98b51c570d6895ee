// Package runner is the parallel experiment engine: a bounded worker
// pool that fans independent simulation runs out across CPUs and returns
// their results in submission order, so any output derived from a batch
// is byte-identical to running the same batch serially.
//
// Determinism contract (see DESIGN.md, "Runner determinism"): every task
// must be a pure function of its inputs — simulations seed their own RNGs
// and share no mutable state — so the outcome slice is identical for any
// worker count, including 1. The pool only changes wall-clock time.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Task is one named unit of work. Name labels progress reports and panic
// diagnostics; for simulation runs it is conventionally
// "benchmark/config".
type Task[T any] struct {
	Name string
	Run  func(ctx context.Context) (T, error)
}

// Outcome is the result of one task, in the position the task was
// submitted.
type Outcome[T any] struct {
	Name  string
	Value T
	// Err is the task's error, a *PanicError if the task panicked, or the
	// context error if the batch was cancelled before the task started.
	Err error
}

// PanicError reports a task that panicked. The pool recovers the panic so
// one bad run cannot silently kill its worker and hang the batch; the
// task's name and the original stack are preserved.
type PanicError struct {
	Task  string
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: task %q panicked: %v", e.Task, e.Value)
}

// Repanic panics with err on behalf of a caller that cannot continue
// past a failed task, expanding a *PanicError so the crashed task's
// original stack stays visible (panicking with the bare error would
// print only the rethrowing goroutine's stack).
func Repanic(err error) {
	var pe *PanicError
	if errors.As(err, &pe) {
		panic(fmt.Sprintf("%v\n\noriginal stack:\n%s", pe, pe.Stack))
	}
	panic(err)
}

// Options configures a batch.
type Options struct {
	// Workers bounds the number of concurrently running tasks. Zero or
	// negative means runtime.GOMAXPROCS(0).
	Workers int
	// OnDone, if non-nil, is called after each task finishes with the
	// number of finished tasks, the batch size and the task's name.
	// Calls are serialized; done is strictly increasing. Tasks cancelled
	// before starting are not reported.
	OnDone func(done, total int, name string)
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Map runs the tasks on a bounded worker pool and returns their outcomes
// in submission order. It blocks until every started task has finished.
//
// Cancellation: when ctx is cancelled, no further tasks are started;
// already-running tasks complete (their Run also receives ctx and may
// return early). Unstarted tasks get ctx.Err() as their outcome error,
// and Map returns ctx.Err(). Task errors — including recovered panics,
// surfaced as *PanicError — never abort the batch; they are reported in
// the corresponding outcome.
func Map[T any](ctx context.Context, tasks []Task[T], opts Options) ([]Outcome[T], error) {
	out := make([]Outcome[T], len(tasks))
	if len(tasks) == 0 {
		return out, ctx.Err()
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
		idx  = make(chan int)
	)
	for w := opts.workers(len(tasks)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				var ran bool
				out[i], ran = runTask(ctx, tasks[i])
				if ran && opts.OnDone != nil {
					mu.Lock()
					done++
					opts.OnDone(done, len(tasks), tasks[i].Name)
					mu.Unlock()
				}
			}
		}()
	}

	next := 0
feed:
	for next < len(tasks) {
		select {
		case idx <- next:
			next++
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		for i := next; i < len(tasks); i++ {
			out[i] = Outcome[T]{Name: tasks[i].Name, Err: err}
		}
		return out, err
	}
	return out, nil
}

// runTask executes one task with panic recovery; ran reports whether the
// task's Run was actually invoked (false when the context was already
// cancelled), so callers can keep progress reporting honest.
func runTask[T any](ctx context.Context, t Task[T]) (o Outcome[T], ran bool) {
	o.Name = t.Name
	defer func() {
		if r := recover(); r != nil {
			o.Err = &PanicError{Task: t.Name, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := ctx.Err(); err != nil {
		o.Err = err
		return o, false
	}
	ran = true
	o.Value, o.Err = t.Run(ctx)
	return o, ran
}
