package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestForRunsEachIndexOnce checks, at several GOMAXPROCS settings, that
// For calls work exactly once per index for no index, one, fewer
// indices than goroutines and many more, and makes no more workers
// than GOMAXPROCS or n.
func TestForRunsEachIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, procs - 1, 100 * procs} {
			calls := make([]atomic.Int32, n)
			var workers atomic.Int32
			For(n, func() func(int) {
				workers.Add(1)
				return func(i int) { calls[i].Add(1) }
			})
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Fatalf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, c)
				}
			}
			if w := workers.Load(); int(w) > min(n, procs) {
				t.Fatalf("GOMAXPROCS %d, n %d: %d workers", procs, n, w)
			}
		}
	}
}
