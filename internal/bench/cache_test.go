package bench

import (
	"testing"

	"mcd/internal/resultcache"
)

func cachedOpts(t *testing.T) (Options, *resultcache.Cache) {
	t.Helper()
	cache, err := resultcache.New(resultcache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	opts := QuickOptions()
	opts.Window, opts.Warmup = 8_000, 4_000
	opts.Benchmarks = []string{"adpcm"}
	opts.Workers = 2
	return opts, cache
}

// TestGridReusesCachedCells: with a result store configured, a repeated
// Table 6 grid recomputes nothing, and cache state never leaks into the
// output — uncached, cold-cache and warm-cache runs are identical.
func TestGridReusesCachedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("grid in -short mode")
	}
	opts, cache := cachedOpts(t)

	plain := Table6(opts.RunAll())

	opts.Cache = cache
	cold := Table6(opts.RunAll())
	missesAfterCold := cache.Stats().Misses
	warm := Table6(opts.RunAll())
	s := cache.Stats()

	if plain != cold || cold != warm {
		t.Fatalf("cache state leaked into Table 6 output:\n%s\n---\n%s\n---\n%s", plain, cold, warm)
	}
	if missesAfterCold == 0 {
		t.Fatal("cold run did not populate the store")
	}
	if s.Misses != missesAfterCold {
		t.Fatalf("warm grid recomputed %d cells", s.Misses-missesAfterCold)
	}
	if s.Hits() < missesAfterCold {
		t.Fatalf("warm grid should hit every cell: %+v", s)
	}
}

// TestSweepReusesCachedCells: repeated sensitivity sweeps skip
// completed cells (the acceptance criterion for the serving-layer PR),
// with byte-identical formatted output.
func TestSweepReusesCachedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	opts, cache := cachedOpts(t)
	opts.Cache = cache
	values := []float64{0.005, 0.0125}

	cold := FormatSweep("t", "decay", runFigure(t, opts, "decay", values))
	missesAfterCold := cache.Stats().Misses
	warm := FormatSweep("t", "decay", runFigure(t, opts, "decay", values))
	s := cache.Stats()

	if cold != warm {
		t.Fatalf("repeated sweep output differs:\n%s\n---\n%s", cold, warm)
	}
	if s.Misses != missesAfterCold {
		t.Fatalf("warm sweep recomputed %d cells", s.Misses-missesAfterCold)
	}
	// A second sweep sharing cells with the first (overlapping value)
	// only computes the new value's cells.
	before := cache.Stats().Misses
	FormatSweep("t", "decay", runFigure(t, opts, "decay", []float64{0.0125, 0.02}))
	added := cache.Stats().Misses - before
	nBench := uint64(len(opts.catalog()))
	if added != nBench {
		t.Fatalf("overlapping sweep computed %d new cells, want %d (one value × %d benchmarks)", added, nBench, nBench)
	}
}
