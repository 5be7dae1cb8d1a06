package engine

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/vec"
)

// TestEngineRejectsWrongDimensionQueries: a query whose point or window
// has another dimensionality than the index fails at submission with
// ErrInvalidQuery; it never reaches the index, where it would fail as a
// contained panic that routing layers retry.
func TestEngineRejectsWrongDimensionQueries(t *testing.T) {
	sto, tr, _ := buildTree(t, 91, 1500, 6)
	short := vec.Point{0.5, 0.5, 0.5}
	bad := []Query{
		{Kind: KNN, Point: short, K: 3},
		{Kind: Range, Point: short, Eps: 0.2},
		{Kind: Window, Window: vec.MBR{Lo: vec.Point{0, 0, 0}, Hi: vec.Point{1, 1, 1}}},
	}
	e := New(sto, tr, 2)
	defer e.Close()
	for i, q := range bad {
		if res := e.Submit(q); !errors.Is(res.Err, ErrInvalidQuery) {
			t.Fatalf("query %d (%s): err %v, want ErrInvalidQuery", i, q.Kind, res.Err)
		}
	}
	if got := e.Health().Panics; got != 0 {
		t.Fatalf("%d panics, want 0", got)
	}
}

// TestEngineRejectsWrongDimensionWrite: a malformed insert is rejected at
// submission, so it can never be coalesced into an InsertBatch with
// well-formed writes and fail them all.
func TestEngineRejectsWrongDimensionWrite(t *testing.T) {
	sto, tr, _ := buildWALTree(t, 92, 1500, 6)
	e := New(sto, tr, 2, WithWrites())
	defer e.Close()

	var wg sync.WaitGroup
	results := make([]WriteResult, 32)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := vec.Point{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
			if i == 7 {
				p = p[:3]
			}
			results[i] = e.SubmitWrite(Write{Kind: WriteInsert, Points: []vec.Point{p}, IDs: []uint32{uint32(100000 + i)}})
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if i == 7 {
			if !errors.Is(res.Err, ErrInvalidWrite) {
				t.Fatalf("3-d insert on a 6-d index: err %v, want ErrInvalidWrite", res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("well-formed insert %d failed beside a malformed one: %v", i, res.Err)
		}
	}
	if got, want := tr.Len(), 1500+len(results)-1; got != want {
		t.Fatalf("tree holds %d points, want %d", got, want)
	}
}
