package shard

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/store"
	"repro/internal/vec"
)

// fileBytes returns the whole content of one file of a store.
func fileBytes(t *testing.T, sto *store.Store, name string) []byte {
	t.Helper()
	f := sto.Backend().Lookup(name)
	if f == nil {
		t.Fatalf("no file %s", name)
	}
	data, err := f.ReadBlocks(0, f.Blocks())
	if err != nil {
		t.Fatalf("read %s: %v", name, err)
	}
	return data
}

// TestNewBuildsReplicasConcurrently pins what New promises around its
// concurrent replica builds: NewStore is called once per replica of each
// non-empty shard, in (shard, replica) order, on one goroutine and
// before any build starts; every replica is byte-identical to a
// sequential build of its shard, and its pool holds what a standalone
// build leaves in the same pool, so its queries cost the same; and a
// failed build surfaces as the first failure in (shard, replica) order.
// Run it with -race: calls lands in an unsynchronized slice, so a
// concurrent NewStore is a race.
func TestNewBuildsReplicasConcurrently(t *testing.T) {
	const shards, replicas = 4, 2
	r := rand.New(rand.NewSource(81))
	pts := randPoints(r, 4000, 8)
	part := Centroid{Seed: 82}
	local := make([][]vec.Point, shards)
	assign, _ := part.Assign(pts, shards)
	for i, si := range assign {
		local[si] = append(local[si], pts[i])
	}
	var wantCalls [][2]int
	for si := range local {
		if len(local[si]) == 0 {
			t.Fatalf("shard %d is empty; the test wants every shard built", si)
		}
		for ri := 0; ri < replicas; ri++ {
			wantCalls = append(wantCalls, [2]int{si, ri})
		}
	}

	const poolBytes = 16 << 20 // the benchmark's shard-scatter pool
	t.Run("order and identity", func(t *testing.T) {
		var calls [][2]int
		var made []*store.Store
		c, err := New(Config{
			Shards: shards, Replicas: replicas, Partitioner: part,
			NewStore: func(si, ri int) (*store.Store, error) {
				for _, sto := range made {
					if names := sto.Backend().Names(); len(names) > 0 {
						t.Errorf("NewStore(%d, %d) called after a build wrote %v", si, ri, names)
					}
				}
				calls = append(calls, [2]int{si, ri})
				sto := store.NewSim(store.DefaultConfig())
				sto.SetCache(poolBytes)
				made = append(made, sto)
				return sto, nil
			},
		}, pts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if !reflect.DeepEqual(calls, wantCalls) {
			t.Fatalf("NewStore calls %v, want %v", calls, wantCalls)
		}
		queries := randPoints(r, 16, 8)
		for si, lp := range local {
			ref := store.NewSim(store.DefaultConfig())
			ref.SetCache(poolBytes)
			refTree, err := core.Build(ref, lp, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			refPool := ref.Pool().Stats()
			refTimes := knnTimes(t, refTree, ref, queries)
			for ri := 0; ri < replicas; ri++ {
				sto := made[si*replicas+ri]
				for _, name := range []string{core.DirFileName, core.QFileName, core.EFileName, core.MetaFileName} {
					if !bytes.Equal(fileBytes(t, sto, name), fileBytes(t, ref, name)) {
						t.Errorf("shard %d replica %d: %s differs from a sequential build", si, ri, name)
					}
				}
				if ps := sto.Pool().Stats(); ps.Frames != refPool.Frames || ps.BytesUsed != refPool.BytesUsed {
					t.Errorf("shard %d replica %d: pool holds %d frames (%d bytes), a standalone build leaves %d (%d bytes)",
						si, ri, ps.Frames, ps.BytesUsed, refPool.Frames, refPool.BytesUsed)
				}
				if got := knnTimes(t, c.shards[si].reps[ri].stack().tree, sto, queries); !slices.Equal(got, refTimes) {
					t.Errorf("shard %d replica %d: KNN sim times %v, standalone tree %v", si, ri, got, refTimes)
				}
			}
		}
	})

	t.Run("failure", func(t *testing.T) {
		for _, tc := range []struct {
			failing     [][2]int
			want, other string
		}{
			{failing: [][2]int{{2, 1}}, want: "shard 2 replica 1: build: "},
			{failing: [][2]int{{3, 0}, {1, 1}}, want: "shard 1 replica 1: build: ", other: "shard 3"},
		} {
			c, err := New(Config{
				Shards: shards, Replicas: replicas, Partitioner: part,
				NewStore: func(si, ri int) (*store.Store, error) {
					var backend store.BlockStore = store.NewSimStore(store.DefaultConfig())
					if slices.Contains(tc.failing, [2]int{si, ri}) {
						backend = store.NewFaultStore(backend, store.FaultConfig{WriteErr: 1})
					}
					return store.Wrap(backend), nil
				},
			}, pts)
			if err == nil {
				c.Close()
				t.Fatalf("failing %v: New succeeded", tc.failing)
			}
			if msg := err.Error(); !strings.HasPrefix(msg, tc.want) || (tc.other != "" && strings.Contains(msg, tc.other)) {
				t.Fatalf("failing %v: error %q, want it to start with %q", tc.failing, msg, tc.want)
			}
		}
	})
}

// knnTimes runs a 10-NN query at each point of queries on tr, one
// session each, and returns the simulated time each charged.
func knnTimes(t *testing.T, tr *core.Tree, sto *store.Store, queries []vec.Point) []float64 {
	t.Helper()
	times := make([]float64, len(queries))
	for i, q := range queries {
		s := sto.NewSession()
		if _, err := tr.KNN(s, q, 10); err != nil {
			t.Fatal(err)
		}
		times[i] = s.Time()
	}
	return times
}

// TestCentroidIndependentOfSchedule: Centroid.Assign spreads its
// nearest-centroid passes over GOMAXPROCS goroutines, and neither the
// assignment nor the Placer may depend on how many.
func TestCentroidIndependentOfSchedule(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	seven := randPoints(r, 7, 8)
	dups := make([]vec.Point, 20000)
	for i := range dups {
		dups[i] = seven[i%len(seven)]
	}
	for _, c := range []struct {
		name   string
		pts    []vec.Point
		shards int
	}{
		{"cad", dataset.GenCAD(1, 20000), 4},
		{"duplicates", dups, 4},
		{"starved", dups, 12}, // more shards than distinct points: centroids are re-seeded
	} {
		t.Run(c.name, func(t *testing.T) {
			probes := append(randPoints(r, 64, len(c.pts[0])), c.pts[:64]...)
			assignAt := func(procs int) (assign, placed []int) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				assign, place := Centroid{Seed: 30}.Assign(c.pts, c.shards)
				for i, q := range probes {
					placed = append(placed, place(q, uint32(len(c.pts)+i)))
				}
				return assign, placed
			}
			assign1, placed1 := assignAt(1)
			assign4, placed4 := assignAt(4)
			if !slices.Equal(assign1, assign4) {
				t.Error("assignment differs between GOMAXPROCS 1 and 4")
			}
			if !slices.Equal(placed1, placed4) {
				t.Errorf("Placer answers differ between GOMAXPROCS 1 and 4: %v vs %v", placed1, placed4)
			}
			if slices.Max(assign1) == 0 {
				t.Fatal("every point on shard 0: the comparison is vacuous")
			}
		})
	}
}
