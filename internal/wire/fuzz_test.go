package wire

import (
	"bytes"
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mcd/internal/bench"
	"mcd/internal/sim"
)

// FuzzParseParams feeds arbitrary strings to the CLI parameter parser.
// It never panics, and any map it accepts, rendered back as name=value
// pairs with the shortest exact float spelling, parses to bit-identical
// values (NaN and signed zero included).
func FuzzParseParams(f *testing.F) {
	for _, s := range []string{
		"", "  ", "kp=0.125", "nope=1", "step_mhz=50", "kp=0.08,setpoint=3",
		" kp = 0.08 , , setpoint=3 ", "kp", "=1", "kp=", "kp=x", "kp=1=2",
		"a=NaN,b=-Inf,c=+Inf,d=-0", "a=0x1p-2", "a=1e400", "a=1,a=2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := ParseParams(s)
		if err != nil {
			return
		}
		pairs := make([]string, 0, len(got))
		for name, v := range got {
			pairs = append(pairs, name+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
		again, err := ParseParams(strings.Join(pairs, ","))
		if err != nil {
			t.Fatalf("re-rendered %q rejected: %v", pairs, err)
		}
		if len(again) != len(got) {
			t.Fatalf("re-rendered %q parsed to %d parameters, want %d", pairs, len(again), len(got))
		}
		for name, v := range got {
			w, ok := again[name]
			if !ok || math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("parameter %q: %v (bits %x) re-parsed as %v (bits %x)", name, v, math.Float64bits(v), w, math.Float64bits(w))
			}
		}
	})
}

// decodeStrict decodes one request body as the service and the fabric
// worker do: unknown fields are an error.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzResolve decodes arbitrary bytes into a RunRequest strictly and
// resolves it. Nothing panics; an accepted request's key is the one
// RunRequest.Key derives; and its normalized request, re-encoded,
// decodes and resolves to the same request under the same key.
func FuzzResolve(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"benchmark":"adpcm","config":"attack-decay","window":8000,"warmup":4000,"interval":250}`,
		`{"benchmark":"adpcm","controller":"dynamic-1","window":8000,"warmup":4000,"interval":500}`,
		`{"benchmark":"mcf","config":"mcd","window":8000,"warmup":4000}`,
		`{"benchmark":"adpcm","controller":"pi","params":{"kp":0.125},"window":8000,"warmup":4000}`,
		`{"benchmark":"adpcm","controller":"global","params":{"deg":0.02,"base_ps":1e9}}`,
		`{"benchmark":"adpcm","config":"sync","params":{"freq_mhz":500},"fidelity":"sampled","sample_every":4}`,
		`{"benchmark":"adpcm","warmup":0,"interval":0,"slew_ns_per_mhz":0}`,
		`{"controller":"pi","config":"coord"}`,
		`{"controller":"pi","params":{"nope":1}}`,
		`{"controller":"dynamic-1","params":{"target":0.05}}`,
		`{"benchmark":"nonesuch"}`,
		`{"benchmark":"adpcm","fidelity":"bogus"}`,
		`{"benchmark":"adpcm","async":true}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req RunRequest
		if decodeStrict(data, &req) != nil {
			return
		}
		res, err := req.Resolve()
		if err != nil {
			return
		}
		if key, _ := req.Key(); res.Key != key {
			t.Fatalf("Resolved.Key %q, RunRequest.Key %q", res.Key, key)
		}
		norm, err := json.Marshal(res.Request())
		if err != nil {
			t.Fatalf("normalized request does not encode: %v", err)
		}
		var back RunRequest
		if err := decodeStrict(norm, &back); err != nil {
			t.Fatalf("normalized request %s does not decode: %v", norm, err)
		}
		again, err := back.Resolve()
		if err != nil {
			t.Fatalf("normalized request %s rejected: %v", norm, err)
		}
		if again.Key != res.Key {
			t.Fatalf("normalized request %s keys %q, original %q", norm, again.Key, res.Key)
		}
		if b, _ := json.Marshal(again.Request()); !bytes.Equal(b, norm) {
			t.Fatalf("normalizing is not idempotent:\n%s\n%s", norm, b)
		}
	})
}

// FuzzFabricExecute decodes arbitrary bytes as a fabric worker decodes
// POST /v1/fabric/execute — strictly — and resolves the carried run,
// without running it. Nothing panics; and an execute the worker would
// accept (it resolves, and its key is empty or the resolved one)
// re-encodes to a body that decodes and resolves under the same key.
func FuzzFabricExecute(f *testing.F) {
	valid := RunRequest{Benchmark: "adpcm", Controller: "pi", Params: map[string]float64{"kp": 0.125},
		Window: 8000, Warmup: U64(4000)}
	key, err := valid.Key()
	if err != nil {
		f.Fatal(err)
	}
	seed, err := json.Marshal(FabricExecute{Key: key, Run: valid})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, s := range []string{
		`{}`,
		`{"key":"","run":{}}`,
		`{"run":{"benchmark":"mcf","config":"mcd","window":8000,"warmup":4000}}`,
		`{"key":"00","run":{"benchmark":"adpcm","controller":"dynamic-1","window":8000}}`,
		`{"run":{"benchmark":"adpcm","controller":"global","params":{"deg":0.02,"base_ps":1e9},"fidelity":"sampled"}}`,
		`{"run":{"benchmark":"adpcm","warmup":0,"interval":0,"slew_ns_per_mhz":0}}`,
		`{"run":{"controller":"pi","params":{"nope":1}}}`,
		`{"run":{"benchmark":"nonesuch"}}`,
		`{"key":"k","run":{},"extra":1}`,
		`{"run":{"async":true}}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ex FabricExecute
		if decodeStrict(data, &ex) != nil {
			return
		}
		res, err := ex.Run.Resolve()
		if err != nil || (ex.Key != "" && ex.Key != res.Key) {
			return // the worker answers 400 or 422
		}
		body, err := json.Marshal(ex)
		if err != nil {
			t.Fatalf("accepted execute does not encode: %v", err)
		}
		var back FabricExecute
		if err := decodeStrict(body, &back); err != nil {
			t.Fatalf("re-encoded execute %s does not decode: %v", body, err)
		}
		again, err := back.Run.Resolve()
		if err != nil {
			t.Fatalf("re-encoded execute %s rejected: %v", body, err)
		}
		if back.Key != ex.Key || again.Key != res.Key {
			t.Fatalf("re-encoded execute %s: key %q resolves %q, original %q resolves %q",
				body, back.Key, again.Key, ex.Key, res.Key)
		}
	})
}

// FuzzExperimentRequest decodes arbitrary bytes into an
// ExperimentRequest as POST /v1/experiments does (unknown fields are an
// error) and validates it. Nothing panics, and an accepted request's
// harness options carry the window, warmup, benchmarks and fidelity it
// named.
func FuzzExperimentRequest(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"name":"table6","quick":true}`,
		`{"name":"fig4","window":8000,"warmup":4000,"benchmarks":["adpcm","mcf"]}`,
		`{"name":"sweep-decay","quick":true,"benchmarks":["adpcm","mcf"],"values":[0.0075],"fidelity":"sampled"}`,
		`{"name":"sweep-controller","controller":"coord","param":"budget_mhz","params":{"step_mhz":50},"quick":true}`,
		`{"name":"sweep-controller","controller":"pi"}`,
		`{"name":"headline","fidelity":"sampled","sample_every":4}`,
		`{"name":"all","values":[1]}`,
		`{"name":"table6","controller":"pi"}`,
		`{"name":"table6","benchmarks":["nonesuch"]}`,
		`{"name":"table6","fidelity":"bogus"}`,
		`{"name":"bogus"}`,
		`{"name":"table6","async":true}`,
		`{"name":"table1"}`,
		`{"name":"table5","quick":true,"window":5}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var e ExperimentRequest
		if decodeStrict(data, &e) != nil || e.Validate() != nil {
			return
		}
		opts, scale := e.Options(), bench.DefaultOptions()
		if e.Quick {
			scale = bench.QuickOptions()
		}
		if want := cmp.Or(e.Window, scale.Window); opts.Window != want {
			t.Errorf("window %d, want %d", opts.Window, want)
		}
		if want := cmp.Or(e.Warmup, scale.Warmup); opts.Warmup != want {
			t.Errorf("warmup %d, want %d", opts.Warmup, want)
		}
		want := e.Benchmarks
		if len(want) == 0 {
			want = scale.Benchmarks
		}
		if !slices.Equal(opts.Benchmarks, want) {
			t.Errorf("benchmarks %q, want %q", opts.Benchmarks, want)
		}
		if fid, _ := sim.ParseFidelity(e.Fidelity); opts.Fidelity != fid {
			t.Errorf("fidelity %v, want %v (%q)", opts.Fidelity, fid, e.Fidelity)
		}
	})
}
