package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/vec"
)

// TestConcurrentQueriesAndUpdates is the snapshot-isolation stress test:
// query goroutines run KNN and range searches while updater goroutines
// insert and delete concurrently — each also stepping the
// auto-reoptimize policy — and a background goroutine reoptimizes.
// Every point ever inserted comes from a fixed pool with ID == pool
// index and per-ID geometry never changes, so any result a query can
// legitimately see — on whichever published snapshot it pinned — must
// satisfy: the ID is below the published insert watermark, the returned
// geometry matches the pool exactly (no torn page reads), and distances
// are exact and sorted. Run under -race this also exercises every lock
// in the stack.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	const (
		initial  = 1500
		poolSize = 3000
		dim      = 6
		queriers = 4
		updaters = 2
		rounds   = 120 // per updater
	)
	r := rand.New(rand.NewSource(42))
	pool := randPoints(r, poolSize, dim)
	opt := DefaultOptions()
	opt.AutoReoptimize = AutoReoptPolicy{GarbageRatio: 0.3}
	tr := buildTree(t, pool[:initial], opt)
	queries := randPoints(r, 32, dim)

	// next is the insert watermark: a slot is reserved (watermark
	// advanced) before its insert runs, so every ID visible in any
	// snapshot is below the watermark a querier reads afterwards.
	var next atomic.Int64
	next.Store(initial)
	stop := make(chan struct{})
	var qWg, uWg sync.WaitGroup

	for w := 0; w < queriers; w++ {
		qWg.Add(1)
		go func(seed int64) {
			defer qWg.Done()
			qr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[qr.Intn(len(queries))]
				s := tr.sto.NewSession()
				var nbs []Neighbor
				var err error
				if qr.Intn(2) == 0 {
					nbs, err = tr.KNN(s, q, 5)
				} else {
					nbs, err = tr.RangeSearch(s, q, 0.6)
				}
				if err != nil {
					t.Errorf("query error: %v", err)
					return
				}
				hi := int(next.Load())
				prev := -1.0
				for _, nb := range nbs {
					if int(nb.ID) >= hi {
						t.Errorf("result ID %d beyond insert watermark %d", nb.ID, hi)
						return
					}
					if !pool[nb.ID].Equal(nb.Point) {
						t.Errorf("torn read: ID %d geometry does not match the pool", nb.ID)
						return
					}
					if d := vec.Euclidean.Dist(q, nb.Point); d != nb.Dist {
						t.Errorf("ID %d reported dist %v, exact %v", nb.ID, nb.Dist, d)
						return
					}
					if nb.Dist < prev {
						t.Errorf("results out of order")
						return
					}
					prev = nb.Dist
				}
			}
		}(int64(100 + w))
	}

	for w := 0; w < updaters; w++ {
		uWg.Add(1)
		go func(seed int64) {
			defer uWg.Done()
			ur := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				s := tr.sto.NewSession()
				if ur.Intn(4) == 0 {
					// Delete from the initial block; racing deletes of the
					// same ID are fine (found == false for the loser).
					id := uint32(ur.Intn(initial))
					if _, err := tr.Delete(s, pool[id], id); err != nil {
						t.Errorf("delete: %v", err)
						return
					}
				} else {
					id := int(next.Add(1)) - 1
					if id >= poolSize {
						continue
					}
					if err := tr.Insert(s, pool[id], uint32(id)); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
			}
		}(int64(200 + w))
	}

	// Background reoptimizer: stop-the-world compaction racing the
	// readers and writers above.
	uWg.Add(1)
	go func() {
		defer uWg.Done()
		for i := 0; i < 3; i++ {
			if err := tr.Reoptimize(); err != nil {
				t.Errorf("reoptimize: %v", err)
				return
			}
		}
	}()

	uWg.Wait()
	close(stop)
	qWg.Wait()

	if t.Failed() {
		return
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after stress: %v", err)
	}
}
