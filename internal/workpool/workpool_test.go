package workpool

import (
	"sync/atomic"
	"testing"
)

// TestRunVisitsEveryIndexOnce drives batches of varying size and
// parallelism through one pool, run under -race in tier-1: every index
// is visited exactly once, and no more than min(par, helpers+1) workers
// are ever inside fn.
func TestRunVisitsEveryIndexOnce(t *testing.T) {
	p := New(3)
	for _, tc := range []struct{ n, par, maxWorkers int }{
		{0, 4, 0}, {1, 4, 1}, {100, 1, 1}, {100, 2, 2}, {1000, 4, 4}, {1000, 64, 4},
	} {
		hits := make([]atomic.Int32, tc.n)
		var inside, peak atomic.Int32
		p.Run(tc.n, tc.par, func(i int) {
			now := inside.Add(1)
			for {
				old := peak.Load()
				if now <= old || peak.CompareAndSwap(old, now) {
					break
				}
			}
			hits[i].Add(1)
			inside.Add(-1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d par=%d: index %d visited %d times", tc.n, tc.par, i, got)
			}
		}
		if got := int(peak.Load()); got > tc.maxWorkers {
			t.Fatalf("n=%d par=%d: %d workers inside fn at once, want at most %d", tc.n, tc.par, got, tc.maxWorkers)
		}
	}
}
