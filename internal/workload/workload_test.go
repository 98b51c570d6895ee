package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeneratorWindowExhaustion(t *testing.T) {
	p := Profile{Name: "t", Phases: []Phase{{Mix: Mix{IntALU: 1}}}, Seed: 1}
	g := p.NewGenerator(100)
	var in Instr
	n := 0
	for g.Next(&in) {
		if in.Seq != uint64(n) {
			t.Fatalf("seq = %d at position %d", in.Seq, n)
		}
		n++
	}
	if n != 100 {
		t.Fatalf("generated %d instructions, want 100", n)
	}
	if g.Next(&in) {
		t.Error("Next after exhaustion must return false")
	}
}

func TestGeneratorDeterministicAcrossReset(t *testing.T) {
	b, ok := Lookup("gcc")
	if !ok {
		t.Fatal("gcc missing from catalog")
	}
	g := b.Profile.NewGenerator(5000)
	first := make([]Instr, 0, 5000)
	var in Instr
	for g.Next(&in) {
		first = append(first, in)
	}
	// The replay interleaves NextWarm, which must keep the stream
	// aligned and differ only in leaving the dependencies zero.
	g.Reset()
	for i, want := range first {
		var ok bool
		if i%3 == 1 {
			ok = g.NextWarm(&in)
			want.Dep1, want.Dep2 = 0, 0
		} else {
			ok = g.Next(&in)
		}
		if !ok || in != want {
			t.Fatalf("instruction %d differs after reset: %+v vs %+v", i, in, want)
		}
	}
	if g.Next(&in) {
		t.Fatal("replay is longer than the original")
	}
}

func TestMixProportionsRespected(t *testing.T) {
	p := Profile{Name: "t", Seed: 9, Phases: []Phase{{
		Mix: Mix{IntALU: 0.5, Load: 0.3, Branch: 0.2},
	}}}
	g := p.NewGenerator(200000)
	var counts [NumClasses]int
	var in Instr
	for g.Next(&in) {
		counts[in.Class]++
	}
	tot := 200000.0
	if f := float64(counts[IntALU]) / tot; math.Abs(f-0.5) > 0.02 {
		t.Errorf("IntALU fraction = %v, want ~0.5", f)
	}
	if f := float64(counts[Load]) / tot; math.Abs(f-0.3) > 0.02 {
		t.Errorf("Load fraction = %v, want ~0.3", f)
	}
	if f := float64(counts[Branch]) / tot; math.Abs(f-0.2) > 0.02 {
		t.Errorf("Branch fraction = %v, want ~0.2", f)
	}
	if counts[FPAdd]+counts[FPMul]+counts[FPDiv] != 0 {
		t.Error("integer-only mix generated FP instructions")
	}
}

func TestDependencyDistancesBounded(t *testing.T) {
	b, _ := Lookup("mcf")
	g := b.Profile.NewGenerator(50000)
	var in Instr
	for g.Next(&in) {
		if uint64(in.Dep1) > in.Seq || uint64(in.Dep2) > in.Seq {
			t.Fatalf("dependency before program start at seq %d: %+v", in.Seq, in)
		}
		if in.Dep1 > MaxDepDistance || in.Dep2 > MaxDepDistance {
			t.Fatalf("dependency distance exceeds ring depth: %+v", in)
		}
	}
}

func TestEpicDecodePhaseStructure(t *testing.T) {
	// Figure 3's premise: the FP unit is unused except during two bursts.
	g := EpicDecodeProfile().NewGenerator(500000)
	const buckets = 50
	var fp [buckets]int
	var tot [buckets]int
	var in Instr
	for g.Next(&in) {
		bkt := int(in.Seq * buckets / 500000)
		tot[bkt]++
		if in.Class.FP() {
			fp[bkt]++
		}
	}
	// Opening and closing stretches must be FP-free; the interior must
	// contain two separated FP bursts.
	if fp[0] != 0 || fp[buckets-1] != 0 {
		t.Errorf("epic.decode has FP at the window edges: first=%d last=%d", fp[0], fp[buckets-1])
	}
	active := 0
	inBurst := false
	for i := 0; i < buckets; i++ {
		isFP := float64(fp[i]) > 0.05*float64(tot[i])
		if isFP && !inBurst {
			active++
		}
		inBurst = isFP
	}
	if active != 2 {
		t.Errorf("epic.decode FP bursts = %d, want 2", active)
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 30 {
		t.Fatalf("catalog has %d benchmarks, want 30", len(cat))
	}
	suites := map[string]int{}
	names := map[string]bool{}
	for _, b := range cat {
		if names[b.Name] {
			t.Errorf("duplicate benchmark name %q", b.Name)
		}
		names[b.Name] = true
		suites[b.Suite]++
		if b.Datasets == "" || b.PaperWindowM <= 0 {
			t.Errorf("%s: missing Table 5 metadata", b.Name)
		}
		if len(b.Profile.Phases) == 0 {
			t.Errorf("%s: profile has no phases", b.Name)
		}
	}
	want := map[string]int{SuiteMediaBench: 9, SuiteOlden: 10, SuiteSpecInt: 7, SuiteSpecFP: 4}
	for s, n := range want {
		if suites[s] != n {
			t.Errorf("suite %s has %d benchmarks, want %d", s, suites[s], n)
		}
	}
}

func TestCatalogSuiteCharacteristics(t *testing.T) {
	// SPECint must be FP-free; SPECfp must be FP-heavy.
	for _, b := range Catalog() {
		var fpW float64
		for _, ph := range b.Profile.Phases {
			fpW += ph.Mix.FPFraction()
		}
		fpW /= float64(len(b.Profile.Phases))
		switch b.Suite {
		case SuiteSpecInt:
			if fpW > 0.06 {
				t.Errorf("%s (SPECint) has FP fraction %v", b.Name, fpW)
			}
		case SuiteSpecFP:
			if fpW < 0.25 {
				t.Errorf("%s (SPECfp) has FP fraction %v, want >= 0.25", b.Name, fpW)
			}
		}
	}
}

func TestLookup(t *testing.T) {
	if _, ok := Lookup("nonesuch"); ok {
		t.Error("Lookup should fail for unknown benchmark")
	}
	b, ok := Lookup("epic.decode")
	if !ok || b.Name != "epic.decode" {
		t.Error("epic.decode lookup failed")
	}
	for _, name := range []string{"adpcm", "mcf", "swim", "treeadd"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%q) failed", name)
		}
	}
}

func TestLoopingProfileRepeatsPhases(t *testing.T) {
	p := Profile{
		Name: "looper", Seed: 3, Loop: true, LoopInstr: 1000,
		Phases: []Phase{
			{Frac: 0.5, Mix: Mix{IntALU: 1}},
			{Frac: 0.5, Mix: Mix{FPAdd: 1}},
		},
	}
	g := p.NewGenerator(4000)
	var in Instr
	fpByQuarter := [4]int{}
	for g.Next(&in) {
		if in.Class.FP() {
			fpByQuarter[in.Seq/1000]++
		}
	}
	for q, n := range fpByQuarter {
		if n < 300 || n > 700 {
			t.Errorf("loop quarter %d has %d FP instrs, want ~500", q, n)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if !FPAdd.FP() || !FPMul.FP() || !FPDiv.FP() || IntALU.FP() || Load.FP() {
		t.Error("FP predicate wrong")
	}
	if !Load.Memory() || !Store.Memory() || Branch.Memory() {
		t.Error("Memory predicate wrong")
	}
	for c := Class(0); c < NumClasses; c++ {
		if c.String() == "unknown" {
			t.Errorf("class %d unnamed", c)
		}
	}
}

// Property: generated branch outcomes at biased sites are mostly taken, and
// addresses stay within the working set.
func TestGeneratorInvariantsProperty(t *testing.T) {
	f := func(seed int64, wsel uint8) bool {
		ws := uint64(64<<10) << (wsel % 6)
		p := Profile{Name: "prop", Seed: seed, Phases: []Phase{{
			Mix:        Mix{IntALU: 0.4, Load: 0.3, Store: 0.1, Branch: 0.2},
			WorkingSet: ws,
		}}}
		g := p.NewGenerator(2000)
		var in Instr
		taken, branches := 0, 0
		for g.Next(&in) {
			if in.Class.Memory() {
				if in.Addr < 0x4000_0000 || in.Addr >= 0x4000_0000+ws {
					return false
				}
			}
			if in.Class == Branch {
				branches++
				if in.Taken {
					taken++
				}
			}
		}
		if branches == 0 {
			return true
		}
		return float64(taken)/float64(branches) > 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
