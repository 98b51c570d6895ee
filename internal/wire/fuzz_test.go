package wire

import (
	"math"
	"strconv"
	"strings"
	"testing"
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
