package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/vec"
)

// runShardStatus demonstrates the self-healing replica lifecycle on a
// small in-process fleet: it builds a SelfHeal coordinator over
// the generated dataset, applies a few write batches, kills one
// replica, and prints every per-replica state transition (with the
// write batches it missed) until the repairer has rebuilt the victim
// and the fleet is back to all-Serving.
func runShardStatus(name dataset.Name, seed int64, n, d int) error {
	pts, err := dataset.Generate(name, seed, n, d)
	if err != nil {
		return err
	}
	// A fixed small topology: the point is the lifecycle, not scale.
	const shards, replicas = 4, 2
	reg := &obs.Registry{}
	c, err := shard.New(shard.Config{
		Registry: reg,
		Shards:   shards,
		Replicas: replicas,
		SelfHeal: true,
	}, pts)
	if err != nil {
		return err
	}
	defer c.Close()

	printStatus := func(header string) {
		fmt.Printf("%s\n", header)
		fmt.Printf("  %-5s %-7s %-12s %-5s %14s %5s\n",
			"shard", "replica", "state", "ready", "missed batches", "fails")
		for _, row := range c.Status() {
			fmt.Printf("  %-5d %-7d %-12s %-5v %14d %5d\n",
				row.Shard, row.Replica, row.State, row.Ready, row.Lag, row.Fails)
		}
	}

	// A few write batches, so the fleet serves a mutated state.
	r := rand.New(rand.NewSource(seed + 7))
	for round := 0; round < 3; round++ {
		extra := make([]vec.Point, 32)
		for i := range extra {
			p := make(vec.Point, d)
			for j := range p {
				p[j] = r.Float32()
			}
			extra[i] = p
		}
		if _, err := c.Insert(extra); err != nil {
			return fmt.Errorf("insert: %w", err)
		}
	}
	printStatus(fmt.Sprintf("healthy fleet: %d shards x %d replicas, %d points", shards, replicas, len(pts)))

	fmt.Printf("\nkilling shard %d replica 1...\n", shards-1)
	killed := time.Now()
	c.Engine(shards-1, 1).Close()

	// Follow the lifecycle: print every state transition until the
	// repairer converges the fleet back to all-Serving.
	last := make(map[[2]int]shard.ReplicaState)
	for _, row := range c.Status() {
		last[[2]int{row.Shard, row.Replica}] = row.State
	}
	deadline := killed.Add(60 * time.Second)
	for {
		for _, row := range c.Status() {
			key := [2]int{row.Shard, row.Replica}
			if row.State != last[key] {
				fmt.Printf("  %7.3fs  shard %d replica %d: %s -> %s\n",
					time.Since(killed).Seconds(), row.Shard, row.Replica, last[key], row.State)
				last[key] = row.State
			}
		}
		if c.Healthy() {
			break
		}
		if time.Now().After(deadline) {
			printStatus("TIMED OUT waiting for all-Serving:")
			return fmt.Errorf("fleet did not converge within %s", time.Since(killed).Round(time.Millisecond))
		}
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Println()
	printStatus(fmt.Sprintf("healed fleet (MTTR %s):", time.Since(killed).Round(time.Millisecond)))
	fmt.Printf("repairer: drains=%d rebuilds=%d\n",
		reg.Counter("shard.heal.drains").Value(),
		reg.Counter("shard.heal.rebuilds").Value())
	return nil
}
