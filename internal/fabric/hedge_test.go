package fabric

import (
	"testing"
	"time"
)

// TestHedgeDelayIsNearestRankP95 pins the adaptive hedge deadline to
// twice the nearest-rank 95th percentile of the latency window: the
// largest of 4 samples, the 61st of 64.
func TestHedgeDelayIsNearestRankP95(t *testing.T) {
	for _, tc := range []struct {
		n    int
		step time.Duration
		want time.Duration
	}{
		{4, 100 * time.Millisecond, 2 * 400 * time.Millisecond},
		{64, 10 * time.Millisecond, 2 * 610 * time.Millisecond},
	} {
		c := NewCoordinator(Options{})
		c.Close()
		for i := tc.n; i >= 1; i-- {
			c.noteLatency(time.Duration(i) * tc.step)
		}
		if got := c.hedgeDelay(); got != tc.want {
			t.Errorf("%d samples: hedge delay %v, want %v", tc.n, got, tc.want)
		}
	}
}
