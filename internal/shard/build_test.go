package shard

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
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
// sequential build of its shard; and a failed build surfaces as the
// first failure in (shard, replica) order. Run it with -race: calls
// lands in an unsynchronized slice, so a concurrent NewStore is a race.
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
		for si, lp := range local {
			ref := store.NewSim(store.DefaultConfig())
			if _, err := core.Build(ref, lp, core.DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			for ri := 0; ri < replicas; ri++ {
				for _, name := range []string{core.DirFileName, core.QFileName, core.EFileName, core.MetaFileName} {
					if !bytes.Equal(fileBytes(t, made[si*replicas+ri], name), fileBytes(t, ref, name)) {
						t.Errorf("shard %d replica %d: %s differs from a sequential build", si, ri, name)
					}
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
