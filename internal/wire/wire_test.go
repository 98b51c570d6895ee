package wire

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestEveryControllerRoundTrips is the registry contract at the wire
// layer: for every registered controller (legacy names, aliases, pi,
// coord, ...), a request round-tripped through its JSON encoding
// resolves to the same Spec surface and the same deterministic SpecKey;
// no two controllers share a key; and both request spellings
// ("controller" and legacy "config") address the same computation.
func TestEveryControllerRoundTrips(t *testing.T) {
	seen := map[string]string{}
	for _, name := range Controllers() {
		req := RunRequest{
			Benchmark:  "adpcm",
			Controller: name,
			Window:     8_000,
			Warmup:     U64(4_000),
			Interval:   U64(500),
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		b, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back RunRequest
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}

		k1, err := req.Key()
		if err != nil {
			t.Fatalf("%s: Key: %v", name, err)
		}
		k2, err := back.Key()
		if err != nil {
			t.Fatalf("%s: round-tripped Key: %v", name, err)
		}
		k3, _ := back.Key()
		if k1 != k2 || k2 != k3 {
			t.Errorf("%s: key not deterministic across the JSON round trip: %s %s %s", name, k1, k2, k3)
		}
		if prev, dup := seen[k1]; dup {
			t.Errorf("controllers %s and %s share key %s", prev, name, k1)
		}
		seen[k1] = name

		// The legacy "config" spelling is the same field.
		legacy := req
		legacy.Controller, legacy.Config = "", name
		kl, err := legacy.Key()
		if err != nil {
			t.Fatalf("%s: legacy-spelled Key: %v", name, err)
		}
		if kl != k1 {
			t.Errorf("%s: config and controller spellings key differently", name)
		}
	}
}

// Unknown controller names are rejected with the sorted valid set; a
// request that spells the controller twice inconsistently is rejected;
// parameter overrides are validated against the schema and move the key.
func TestControllerFieldValidation(t *testing.T) {
	err := RunRequest{Benchmark: "adpcm", Controller: "bogus"}.Validate()
	if err == nil {
		t.Fatal("unknown controller accepted")
	}
	idx := -1
	for _, n := range Controllers() {
		i := strings.Index(err.Error(), n)
		if i < 0 {
			t.Fatalf("error %q does not list %q", err, n)
		}
		if i < idx {
			t.Fatalf("error %q does not list the valid set in sorted order", err)
		}
		idx = i
	}

	if err := (RunRequest{Controller: "pi", Config: "coord"}).Validate(); err == nil {
		t.Fatal("conflicting controller/config accepted")
	}

	if err := (RunRequest{Controller: "pi", Params: map[string]float64{"nope": 1}}).Validate(); err == nil {
		t.Fatal("unknown parameter accepted")
	}

	base := RunRequest{Controller: "pi", Window: 8000, Warmup: U64(4000)}
	tuned := base
	tuned.Params = map[string]float64{"kp": 0.125}
	kb, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	kt, err := tuned.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kb == kt {
		t.Error("params override did not change the content address")
	}
}

// The experiment layer validates sweep-controller requests through the
// registry too.
func TestSweepControllerValidation(t *testing.T) {
	if err := (ExperimentRequest{Name: ExpSweepController}).Validate(); err == nil {
		t.Fatal("sweep-controller without controller/param accepted")
	}
	if err := (ExperimentRequest{Name: ExpSweepController, Controller: "bogus", Param: "kp"}).Validate(); err == nil {
		t.Fatal("unknown controller accepted")
	}
	if err := (ExperimentRequest{Name: ExpSweepController, Controller: "pi", Param: "nope"}).Validate(); err == nil {
		t.Fatal("unknown swept parameter accepted")
	}
	if err := (ExperimentRequest{Name: ExpSweepController, Controller: "dynamic-1", Param: "target"}).Validate(); err == nil {
		t.Fatal("sweeping an alias-pinned parameter accepted")
	}
	if err := (ExperimentRequest{
		Name: ExpSweepController, Controller: "coord", Param: "budget_mhz",
		Params: map[string]float64{"step_mhz": 50},
	}).Validate(); err != nil {
		t.Fatalf("valid sweep-controller request rejected: %v", err)
	}
}

// TestExperimentRejectsIgnoredFields: a field the named experiment
// ignores is an error naming the field, never silently dropped.
func TestExperimentRejectsIgnoredFields(t *testing.T) {
	sweep := ExperimentRequest{Controller: "pi", Param: "kp", Params: map[string]float64{"setpoint": 3}}
	for _, tc := range []struct {
		req   ExperimentRequest
		field string // "" means valid
	}{
		{ExperimentRequest{Name: "sweep-decay", Values: []float64{0.0075}}, ""},
		{ExperimentRequest{Name: ExpSweepController, Controller: "pi", Param: "kp", Values: []float64{0.1}}, ""},
		{ExperimentRequest{Name: ExpSweepController, Controller: "pi", Param: "kp", Params: map[string]float64{"setpoint": 3}}, ""},
		{ExperimentRequest{Name: ExpTable6, Params: map[string]float64{}}, ""},
		{ExperimentRequest{Name: "sweep-decay", Controller: "pi"}, "controller"},
		{ExperimentRequest{Name: "sweep-target", Param: "kp"}, "param"},
		{ExperimentRequest{Name: "sweep-reaction", Params: sweep.Params}, "params"},
		{ExperimentRequest{Name: ExpTable6, Controller: sweep.Controller}, "controller"},
		{ExperimentRequest{Name: ExpFig4, Param: sweep.Param}, "param"},
		{ExperimentRequest{Name: ExpHeadline, Params: sweep.Params}, "params"},
		{ExperimentRequest{Name: ExpTable6, Values: []float64{1}}, "values"},
		{ExperimentRequest{Name: ExpFig4, Values: []float64{1}}, "values"},
		{ExperimentRequest{Name: ExpHeadline, Values: []float64{1}}, "values"},
		{ExperimentRequest{Name: ExpAll, Values: []float64{1}}, "values"},
	} {
		err := tc.req.Validate()
		switch {
		case tc.field == "" && err != nil:
			t.Errorf("%+v rejected: %v", tc.req, err)
		case tc.field != "" && err == nil:
			t.Errorf("%+v accepted, want %q rejected", tc.req, tc.field)
		case tc.field != "" && !strings.Contains(err.Error(), `"`+tc.field+`"`):
			t.Errorf("%+v: error %q does not name %q", tc.req, err, tc.field)
		}
	}
}

func TestValidateListsValidSets(t *testing.T) {
	err := RunRequest{Benchmark: "adpcm", Config: "bogus"}.Validate()
	if err == nil {
		t.Fatal("unknown config accepted")
	}
	for _, c := range Controllers() {
		if !strings.Contains(err.Error(), c) {
			t.Errorf("config error %q does not list %q", err, c)
		}
	}
	if err := (RunRequest{Benchmark: "nonesuch"}).Validate(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if err := (ExperimentRequest{Name: "bogus"}).Validate(); err == nil {
		t.Fatal("unknown experiment accepted")
	} else {
		for _, e := range Experiments() {
			if !strings.Contains(err.Error(), e) {
				t.Errorf("experiment error %q does not list %q", err, e)
			}
		}
	}
}

// TestKeysDistinguishRequests: every config of the same benchmark gets
// its own content address, and the defaults are part of it (an explicit
// default-valued request equals a zero-valued one).
func TestKeysDistinguishRequests(t *testing.T) {
	seen := map[string]string{}
	for _, cfg := range Controllers() {
		k, err := (RunRequest{Benchmark: "adpcm", Config: cfg, Window: 8000, Warmup: U64(4000)}).Key()
		if err != nil {
			t.Fatalf("%s: %v", cfg, err)
		}
		if prev, dup := seen[k]; dup {
			t.Fatalf("configs %s and %s share a key", prev, cfg)
		}
		seen[k] = cfg
	}

	implicit, err := RunRequest{}.Key()
	if err != nil {
		t.Fatal(err)
	}
	slew := 4.91
	explicit, err := RunRequest{
		Benchmark: "epic.decode", Config: ConfigAttackDecay,
		Window: 400_000, Warmup: U64(200_000), Interval: U64(1000), SlewNsPerMHz: &slew,
	}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if implicit != explicit {
		t.Fatal("normalization is not part of the key: defaults and explicit values differ")
	}

	// Explicit zeros (ideal regulator, cold start, paper-scale default
	// interval) are distinct configurations, not "unset".
	zero := 0.0
	for label, req := range map[string]RunRequest{
		"slew 0":     {SlewNsPerMHz: &zero},
		"warmup 0":   {Warmup: U64(0)},
		"interval 0": {Interval: U64(0)},
	} {
		k, err := req.Key()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if k == implicit {
			t.Fatalf("%s collapsed onto the default", label)
		}
	}
}
