package pipeline

import (
	"reflect"
	"testing"

	"mcd/internal/xrand"
)

// TestRunStateIsPlainData guards the assignments Reset, CaptureWarm and
// RestoreWarm rely on: runState, and the xrand.State a warm snapshot
// copies per rng source, must (recursively) hold no pointer, slice, map,
// interface, channel or func, so `=` copies all of it and a copy shares
// nothing with its source.
func TestRunStateIsPlainData(t *testing.T) {
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: assigning the struct would alias it", path, ty.Kind())
		case reflect.Array:
			walk(ty.Elem(), path+"[]")
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				walk(f.Type, path+"."+f.Name)
			}
		}
	}
	walk(reflect.TypeOf(runState{}), "runState")
	walk(reflect.TypeOf(xrand.State{}), "xrand.State")
}

// TestResetRunStateMatchesNew checks that Reset returns every run-state
// field — the sampled tier's accumulators and walk memo included — to
// what New constructs, after a full sampled run has moved all of them,
// and that the two cores stay equal through Start.
func TestResetRunStateMatchesNew(t *testing.T) {
	prof := intProfile(5)
	opts := RunOptions{Warmup: 8_000, Window: 40_000, IntervalLength: 500, SampleEvery: 4}
	used := New(DefaultConfig(), prof.NewGenerator(opts.Warmup+opts.Window))
	used.Run(opts)
	fresh := New(DefaultConfig(), prof.NewGenerator(opts.Warmup+opts.Window))
	if used.runState == fresh.runState {
		t.Fatal("a finished run left the run state at its fresh value; the check would be vacuous")
	}
	if used.sampledIv == 0 || used.walkS < 0 {
		t.Fatalf("the run never fast-forwarded (sampled intervals %d, walk at %d)", used.sampledIv, used.walkS)
	}
	used.Reset(DefaultConfig(), prof.NewGenerator(opts.Warmup+opts.Window))
	if used.runState != fresh.runState {
		t.Fatalf("Reset run state differs from New:\n got %+v\nwant %+v", used.runState, fresh.runState)
	}
	used.Start(opts)
	fresh.Start(opts)
	if used.runState != fresh.runState {
		t.Fatalf("after Start, Reset run state differs from New:\n got %+v\nwant %+v", used.runState, fresh.runState)
	}
}

// TestExactRunLeavesSamplerFresh checks that only the sampled tier
// writes sampler state: after an exact run, and after a SampleEvery 1
// run (every interval detailed), the core's sampler is still the one New
// constructs.
func TestExactRunLeavesSamplerFresh(t *testing.T) {
	prof := intProfile(5)
	fresh := New(DefaultConfig(), prof.NewGenerator(0))
	for _, every := range []int{0, 1} {
		opts := RunOptions{Warmup: 8_000, Window: 40_000, IntervalLength: 500, SampleEvery: every, Controller: flipController()}
		c := New(DefaultConfig(), prof.NewGenerator(opts.Warmup+opts.Window))
		c.Run(opts)
		if c.ivIndex == 0 {
			t.Fatalf("SampleEvery %d: the run emitted no measured interval", every)
		}
		if c.sampler != fresh.sampler {
			t.Errorf("SampleEvery %d: run wrote sampler state:\n got %+v\nwant %+v", every, c.sampler, fresh.sampler)
		}
	}
}
