package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

// TestNewRejectsRaggedBuildSet: a build point of another dimensionality
// fails New with its global index before the partitioner runs — no
// panic inside Centroid.Assign, no shard-local index from a replica
// build — and before any store is made.
func TestNewRejectsRaggedBuildSet(t *testing.T) {
	for _, part := range []Partitioner{RoundRobin{}, Centroid{Seed: 95}} {
		for _, d := range []int{3, 9} {
			r := rand.New(rand.NewSource(95))
			pts := randPoints(r, 2000, 6)
			pts[333] = randPoints(r, 1, d)[0]
			stores := 0
			c, err := New(Config{
				Shards: 4, Replicas: 2, Partitioner: part,
				NewStore: func(int, int) (*store.Store, error) {
					stores++
					return store.NewSim(store.DefaultConfig()), nil
				},
			}, pts)
			if err == nil {
				c.Close()
				t.Fatalf("%s, a %d-d point among 6-d ones: New succeeded", part.Name(), d)
			}
			if want := fmt.Sprintf("shard: point 333 has dimension %d, want 6", d); err.Error() != want {
				t.Fatalf("%s: error %q, want %q", part.Name(), err, want)
			}
			if stores != 0 {
				t.Fatalf("%s: NewStore called %d times for a rejected build set", part.Name(), stores)
			}
		}
	}
}

// TestShardRejectsWrongDimensionQuery: a query of another dimensionality
// fails typed with ErrInvalidQuery and consumes no failover — it is
// query-local, so no replica could answer it. A longer point would
// index past a shard's bounding box, so it must fail before any box
// distance is taken.
func TestShardRejectsWrongDimensionQuery(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	pts := randPoints(r, 2000, 6)
	reg := &obs.Registry{}
	c, err := New(Config{Shards: 4, Replicas: 2, Registry: reg}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, p := range []vec.Point{{0.5, 0.5, 0.5}, {0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}} {
		res := c.Submit(engine.Query{Kind: engine.KNN, Point: p, K: 3})
		if !errors.Is(res.Err, engine.ErrInvalidQuery) {
			t.Fatalf("%d-d query on a 6-d fleet: err %v, want ErrInvalidQuery", len(p), res.Err)
		}
		if res.Failovers != 0 || reg.Counter("shard.failovers").Value() != 0 {
			t.Fatalf("%d-d query took %d failovers, want 0", len(p), res.Failovers)
		}
	}
}

// TestShardRejectsWrongDimensionInsert: an insert of another
// dimensionality is rejected before any global ID is assigned, so no
// replica fails the write, none is drained, and the fleet keeps serving.
func TestShardRejectsWrongDimensionInsert(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	pts := randPoints(r, 2000, 6)
	c, err := New(Config{Shards: 4, Replicas: 2}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Insert([]vec.Point{{0.5, 0.5, 0.5}}); !errors.Is(err, engine.ErrInvalidWrite) {
		t.Fatalf("3-d insert into a 6-d fleet: err %v, want ErrInvalidWrite", err)
	}
	gids, err := c.Insert(randPoints(r, 1, 6))
	if err != nil {
		t.Fatal(err)
	}
	if gids[0] != uint32(len(pts)) {
		t.Fatalf("rejected insert consumed a global ID: next ID %d, want %d", gids[0], len(pts))
	}
	for i, q := range randPoints(r, 8, 6) {
		if res := c.Submit(engine.Query{Kind: engine.KNN, Point: q, K: 3}); res.Err != nil {
			t.Fatalf("query %d after a rejected insert: %v", i, res.Err)
		}
	}
}
