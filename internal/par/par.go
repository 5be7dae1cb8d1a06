// Package par holds the repository's one fan-out loop: the CPU-bound
// build loops (bulk-load planning, D_F's pair distances, the shard
// layer's plans, replica writes and Centroid chunks) all spread their
// independent indices over the host's cores through For.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls work(i) for every i in [0, n) on up to GOMAXPROCS
// goroutines, which take the indices in turn, and returns when every
// call has; newWorker makes one goroutine's work function, so it can
// reuse its own buffers. Calls for different i must write disjoint data.
func For(n int, newWorker func() func(i int)) {
	workers := min(n, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work := newWorker()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				work(i)
			}
		}()
	}
	wg.Wait()
}
