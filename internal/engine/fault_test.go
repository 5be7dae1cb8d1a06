package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

// stubIndex is a scriptable index for serving-hardening tests: each
// query calls fn (when set) before returning a fixed neighbor.
type stubIndex struct {
	fn func(s *store.Session)
}

func (x *stubIndex) answer(s *store.Session) ([]vec.Neighbor, error) {
	if x.fn != nil {
		x.fn(s)
	}
	// Touch the context the way the real indexes do at page-fetch
	// boundaries: via the session's sticky error surface.
	return []vec.Neighbor{{ID: 1}}, s.Err()
}

func (x *stubIndex) KNN(s *store.Session, q vec.Point, k int) ([]vec.Neighbor, error) {
	return x.answer(s)
}
func (x *stubIndex) RangeSearch(s *store.Session, q vec.Point, eps float64) ([]vec.Neighbor, error) {
	return x.answer(s)
}
func (x *stubIndex) WindowQuery(s *store.Session, w vec.MBR) ([]vec.Neighbor, error) {
	return x.answer(s)
}
func (x *stubIndex) Len() int { return 1 }
func (x *stubIndex) Dim() int { return 2 }

// TestEnginePanicRecovery: a panicking query becomes Result.Err, the
// batch still completes, the worker survives to serve later queries,
// and the panic is counted.
func TestEnginePanicRecovery(t *testing.T) {
	sto := store.NewSim(store.DefaultConfig())
	calls := 0
	idx := &stubIndex{fn: func(s *store.Session) {
		calls++
		if calls == 1 {
			panic("poisoned page")
		}
	}}
	reg := &obs.Registry{}
	e := New(sto, idx, 1, WithRegistry(reg)) // one worker: it must survive
	defer e.Close()

	res := e.Submit(Query{Kind: KNN, Point: vec.Point{0, 0}, K: 1})
	if !errors.Is(res.Err, ErrPanicked) {
		t.Fatalf("panic should surface typed as ErrPanicked, got %v", res.Err)
	}
	if !strings.Contains(res.Err.Error(), "poisoned page") {
		t.Fatalf("panic error lost the panic value: %v", res.Err)
	}
	if res.Neighbors != nil {
		t.Fatal("panicked query must not return partial neighbors")
	}
	// The single worker is still alive and serves the next query.
	ok := e.Submit(Query{Kind: KNN, Point: vec.Point{0, 0}, K: 1})
	if ok.Err != nil {
		t.Fatalf("worker died after panic: %v", ok.Err)
	}
	if got := reg.Counter("engine.panics").Value(); got != 1 {
		t.Fatalf("panics counter = %d, want 1", got)
	}
	if got := reg.Counter("engine.failures").Value(); got != 1 {
		t.Fatalf("failures counter = %d, want 1", got)
	}
}

// TestEnginePanicBatchCompletes: a batch containing panicking queries
// never hangs — every done slot is released.
func TestEnginePanicBatchCompletes(t *testing.T) {
	sto := store.NewSim(store.DefaultConfig())
	idx := &stubIndex{fn: func(s *store.Session) { panic("every query dies") }}
	e := New(sto, idx, 2)
	defer e.Close()

	doneCh := make(chan []Result, 1)
	go func() {
		doneCh <- e.SubmitBatch([]Query{
			{Kind: KNN}, {Kind: Range}, {Kind: Window}, {Kind: KNN},
		})
	}()
	select {
	case results := <-doneCh:
		for i, res := range results {
			if res.Err == nil {
				t.Fatalf("query %d should carry the panic error", i)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("batch with panicking queries hung")
	}
}

// TestEngineLoadShedding: when the queue stays full past the queue
// wait, submissions fail fast with ErrOverloaded instead of blocking.
func TestEngineLoadShedding(t *testing.T) {
	sto := store.NewSim(store.DefaultConfig())
	release := make(chan struct{})
	idx := &stubIndex{fn: func(s *store.Session) { <-release }}
	reg := &obs.Registry{}
	e := New(sto, idx, 1, WithRegistry(reg), WithQueueWait(time.Millisecond))
	defer e.Close()

	// One query occupies the worker, 4 fill the queue (cap 4*workers);
	// submissions beyond that must shed.
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Submit(Query{Kind: KNN, Point: vec.Point{0, 0}, K: 1})
		}()
	}
	// Wait until the queue is actually full.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Gauge("engine.queue_depth").Value() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	res := e.Submit(Query{Kind: KNN, Point: vec.Point{0, 0}, K: 1})
	if !errors.Is(res.Err, ErrOverloaded) {
		t.Fatalf("saturated submit: %v, want ErrOverloaded", res.Err)
	}
	if got := reg.Counter("engine.sheds").Value(); got == 0 {
		t.Fatal("sheds counter did not move")
	}
	close(release)
	wg.Wait()
}

// TestEngineContextCancellation: a done context fails the query typed,
// whether it is caught at submission or at a page-fetch boundary.
func TestEngineContextCancellation(t *testing.T) {
	sto := store.NewSim(store.DefaultConfig())
	f, err := sto.NewFile("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Append(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	idx := &stubIndex{fn: func(s *store.Session) {
		s.Read(f, 0, 1) // page-fetch boundary: checks the context
	}}
	reg := &obs.Registry{}
	e := New(sto, idx, 1, WithRegistry(reg))
	defer e.Close()

	// Pre-canceled context: rejected at submission.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.Submit(Query{Kind: KNN, Point: vec.Point{0, 0}, K: 1, Ctx: ctx})
	if !errors.Is(res.Err, ErrCanceled) || !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("pre-canceled submit: %v", res.Err)
	}

	// Context canceled mid-run: the session's page-fetch check trips.
	ctx2, cancel2 := context.WithCancel(context.Background())
	idx.fn = func(s *store.Session) {
		cancel2()
		s.Read(f, 0, 1)
	}
	res = e.Submit(Query{Kind: KNN, Point: vec.Point{0, 0}, K: 1, Ctx: ctx2})
	if !errors.Is(res.Err, ErrCanceled) {
		t.Fatalf("mid-run cancellation: %v", res.Err)
	}
	if got := reg.Counter("engine.cancellations").Value(); got < 2 {
		t.Fatalf("cancellations counter = %d, want >= 2", got)
	}

	// A live context is invisible.
	idx.fn = func(s *store.Session) { s.Read(f, 0, 1) }
	res = e.Submit(Query{Kind: KNN, Point: vec.Point{0, 0}, K: 1, Ctx: context.Background()})
	if res.Err != nil {
		t.Fatalf("live context: %v", res.Err)
	}
}

// stubWriter is a stubIndex that takes writes and applies nothing.
type stubWriter struct{ stubIndex }

func (*stubWriter) InsertBatch(*store.Session, []vec.Point, []uint32) error { return nil }
func (*stubWriter) Delete(*store.Session, vec.Point, uint32) (bool, error)  { return true, nil }

// TestEngineSubmitCloseRace hammers Submit and SubmitWrite against a
// concurrent Close under the race detector: no send on a closed channel,
// no hang, and every submission either runs or fails with ErrClosed. The
// queue wait is long, so a submission that finds its lane full holds the
// close lock while it waits for space instead of shedding.
func TestEngineSubmitCloseRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		sto := store.NewSim(store.DefaultConfig())
		e := New(sto, &stubWriter{}, 2, WithWrites(), WithQueueWait(time.Minute))
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					var err error
					if g%2 == 0 {
						err = e.Submit(Query{Kind: KNN, Point: vec.Point{0, 0}, K: 1}).Err
					} else {
						err = e.SubmitWrite(Write{Kind: WriteInsert, Points: []vec.Point{{0, 0}}, IDs: []uint32{uint32(i)}}).Err
					}
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Errorf("race round %d: %v", round, err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e.Close()
		}()
		close(start)
		wg.Wait()
	}
}
