package bench

import (
	"reflect"
	"strings"
	"testing"

	"mcd/internal/clock"
	"mcd/internal/resultcache"
	"mcd/internal/stats"
)

// tiny returns options small enough for unit tests.
func tiny() Options {
	o := DefaultOptions()
	o.Window = 60_000
	o.Warmup = 30_000
	o.IntervalLength = 500
	o.OfflineIters = 2
	o.Benchmarks = []string{"adpcm"}
	return o
}

// TestSweepControllerShapes: the registry-generic sweep produces one
// point per value for any registered controller, reuses completed cells
// through the cache, and rejects unknown names through the registry's
// errors.
func TestSweepControllerShapes(t *testing.T) {
	o := tiny()
	o.Window, o.Warmup = 20_000, 10_000
	c, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = c

	values := []float64{0.02, 0.1}
	pts, err := o.SweepController("pi", "kp", values, map[string]float64{"setpoint": 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(values) {
		t.Fatalf("got %d points, want %d", len(pts), len(values))
	}
	for i, p := range pts {
		if p.Value != values[i] {
			t.Errorf("point %d value %v, want %v", i, p.Value, values[i])
		}
	}
	misses := c.Stats().Misses

	// The same sweep again must recompute nothing and summarize
	// identically.
	again, err := o.SweepController("pi", "kp", values, map[string]float64{"setpoint": 3})
	if err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Misses != misses {
		t.Errorf("repeat sweep simulated %d new cells", s.Misses-misses)
	}
	for i := range pts {
		if again[i] != pts[i] {
			t.Errorf("point %d differs across cached repeat", i)
		}
	}

	// Default values come from the schema's documented range.
	defPts, err := o.SweepController("coord", "budget_mhz", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(defPts) < 2 {
		t.Fatalf("range-sampled sweep produced %d points", len(defPts))
	}

	if _, err := o.SweepController("bogus", "kp", values, nil); err == nil || !strings.Contains(err.Error(), "pi") {
		t.Errorf("unknown controller error %v should list the valid set", err)
	}
	if _, err := o.SweepController("pi", "bogus", values, nil); err == nil || !strings.Contains(err.Error(), "kp") {
		t.Errorf("unknown parameter error %v should list the schema", err)
	}
}

func TestStaticTablesRender(t *testing.T) {
	for name, s := range map[string]string{
		"table1": Table1(), "table2": Table2(), "table3": Table3(),
		"table4": Table4(), "table5": Table5(),
	} {
		if len(s) < 100 {
			t.Errorf("%s suspiciously short:\n%s", name, s)
		}
	}
	if !strings.Contains(Table3(), "476") {
		t.Error("Table 3 must contain the 476 gates/domain figure")
	}
	if got := strings.Count(Table5(), "\n"); got < 30 {
		t.Errorf("Table 5 has %d lines, want >= 30 benchmarks", got)
	}
	if !strings.Contains(Table1(), "49.1 ns/MHz") {
		t.Error("Table 1 must contain the XScale slew rate")
	}
}

func TestRunComparisonProducesAllConfigs(t *testing.T) {
	o := tiny()
	o.Benchmarks = []string{"adpcm"}
	c := o.RunAll()[0]
	for name, r := range map[string]uint64{
		"sync": c.Sync.Instructions, "mcd": c.MCDBase.Instructions,
		"ad": c.AD.Instructions, "dyn1": c.Dyn1.Instructions,
		"dyn5": c.Dyn5.Instructions, "gad": c.GlobalAD.Instructions,
	} {
		if r != o.Window {
			t.Errorf("%s retired %d, want %d", name, r, o.Window)
		}
	}
	// The Attack/Decay run must save energy vs the MCD baseline on this
	// FP-free workload.
	if c.AD.EnergyPJ >= c.MCDBase.EnergyPJ {
		t.Error("Attack/Decay saved no energy on adpcm")
	}
	t6 := Table6([]Comparison{c})
	if !strings.Contains(t6, "Attack/Decay") || !strings.Contains(t6, "Global (Dynamic-5%)") {
		t.Errorf("Table 6 missing rows:\n%s", t6)
	}
	f4 := Fig4([]Comparison{c})
	if !strings.Contains(f4, "adpcm") || !strings.Contains(f4, "average") {
		t.Errorf("Figure 4 malformed:\n%s", f4)
	}
	h := Headline([]Comparison{c})
	if !strings.Contains(h, "vs baseline MCD") {
		t.Errorf("headline malformed:\n%s", h)
	}
}

// TestHeadlineSigns: the headline prints signed changes, so a losing
// Attack/Decay reads "EPI +10.0%" and "EDP -8.9%", never "--" or "+-",
// while a winning one keeps its usual spelling.
func TestHeadlineSigns(t *testing.T) {
	res := func(timePS, energyPJ float64) stats.Result {
		return stats.Result{Instructions: 1000, TimePS: timePS, EnergyPJ: energyPJ}
	}
	base := res(1000, 1000)
	for _, tc := range []struct {
		ad   stats.Result
		want string
	}{
		{res(990, 1100), "vs baseline MCD:       EPI +10.0% (19.0%), CPI -1.0% (3.2%), EDP -8.9% (16.7%)"},
		{res(1010, 900), "vs baseline MCD:       EPI -10.0% (19.0%), CPI +1.0% (3.2%), EDP +9.1% (16.7%)"},
	} {
		c := Comparison{Sync: base, MCDBase: base, AD: tc.ad, Dyn1: base, Dyn5: base, GlobalAD: base, GlobalD1: base, GlobalD5: base}
		h := Headline([]Comparison{c})
		if !strings.Contains(h, tc.want) || strings.Contains(h, "--") || strings.Contains(h, "+-") {
			t.Errorf("headline does not contain %q with single signs:\n%s", tc.want, h)
		}
	}
}

func TestTraceEmitsFigureSeries(t *testing.T) {
	to := tiny()
	to.Window = 100_000
	trace := func(name string) (stats.Result, error) {
		res, err := to.TraceMany([]string{name})
		if err != nil {
			return stats.Result{}, err
		}
		return res[0], nil
	}
	res, err := trace("epic.decode")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals) < 100 {
		t.Fatalf("only %d intervals recorded", len(res.Intervals))
	}
	csv := FigureCSV(res, clock.FloatingPoint)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(res.Intervals)+1 {
		t.Errorf("CSV has %d lines, want %d", len(lines), len(res.Intervals)+1)
	}
	if !strings.HasPrefix(lines[0], "instructions,") {
		t.Errorf("CSV header wrong: %s", lines[0])
	}
	if _, err := trace("epic.decode"); err != nil {
		t.Fatal(err)
	}
	if _, err := trace("nonesuch"); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestSweepShapes(t *testing.T) {
	o := tiny()
	pts := runFigure(t, o, "decay", []float64{0.00175, 0.0125})
	if len(pts) != 2 {
		t.Fatalf("got %d sweep points", len(pts))
	}
	for _, p := range pts {
		if p.Summary.N != 1 {
			t.Errorf("sweep point summarized %d benchmarks, want 1", p.Summary.N)
		}
	}
	if pts[0].Value != 0.00175 || pts[1].Value != 0.0125 {
		t.Error("sweep values out of order")
	}
	out := FormatSweep("fig6a", "decay", pts)
	if !strings.Contains(out, "EDPImprov") {
		t.Errorf("sweep format malformed:\n%s", out)
	}
}

func TestCatalogFilter(t *testing.T) {
	o := DefaultOptions()
	if got := len(o.catalog()); got != 30 {
		t.Errorf("unfiltered catalog = %d, want 30", got)
	}
	o.Benchmarks = []string{"mcf", "swim"}
	if got := len(o.catalog()); got != 2 {
		t.Errorf("filtered catalog = %d, want 2", got)
	}
	if got := len(QuickOptions().catalog()); got != 10 {
		t.Errorf("quick catalog = %d, want 10", got)
	}
}

// FollowTrace's contracts: cold, the observer sees exactly the recorded
// intervals (so -follow rows are byte-identical to post-hoc FigureCSV
// output); warm, the cache hit replays the stored records through the
// observer with the same rows.
func TestFollowTraceMatchesTrace(t *testing.T) {
	o := tiny()
	c, err := resultcache.New(resultcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o.Cache = c

	rows := func(emitted []stats.Interval) string {
		s := FigureCSVHeader()
		prev := 0.0
		for i, iv := range emitted {
			s += FigureCSVRow(i, iv, prev, clock.FloatingPoint)
			prev = iv.QueueUtil[clock.FloatingPoint]
		}
		return s
	}

	var cold []stats.Interval
	res, err := o.FollowTrace("adpcm", func(iv stats.Interval) { cold = append(cold, iv) })
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) == 0 || !reflect.DeepEqual(cold, res.Intervals) {
		t.Fatalf("cold follow emitted %d intervals, result recorded %d", len(cold), len(res.Intervals))
	}
	if rows(cold) != FigureCSV(res, clock.FloatingPoint) {
		t.Error("streamed rows differ from post-hoc FigureCSV")
	}

	var warm []stats.Interval
	res2, err := o.FollowTrace("adpcm", func(iv stats.Interval) { warm = append(warm, iv) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Error("warm FollowTrace result differs from cold")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Error("cache-hit replay emitted different intervals")
	}
	if c.Stats().Hits() == 0 {
		t.Error("second FollowTrace did not hit the cache")
	}

	if _, err := o.FollowTrace("bogus", nil); err == nil {
		t.Error("unknown benchmark accepted")
	}
}
