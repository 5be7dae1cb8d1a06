// Coordinator writes: Insert appends a batch of points to the fleet.
// Each point goes where the build would have placed it (the Placer its
// Partitioner returned); each shard grows its bounding box, then
// applies its slice to every Serving replica under the shard's write
// lock, in the same order on every replica — which is
// what keeps deterministic replicas answering identically after any
// number of writes. A replica that fails a write has diverged and is
// drained on the spot; with SelfHeal it comes back through a rebuild.
package shard

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/vec"
)

// ErrNoReplicas means a shard had no Serving replica to apply a write.
var ErrNoReplicas = errors.New("shard: no serving replica accepted the write")

// Insert appends pts to the fleet and returns their global IDs (one per
// point, in input order). An ID is durable as soon as Insert returns
// when the replicas log (Config.SelfHeal). A non-nil error means at
// least one shard could not apply its slice on any Serving replica —
// those points are not in the fleet; slices that did apply are.
func (c *Coordinator) Insert(pts []vec.Point) ([]uint32, error) {
	if len(pts) == 0 {
		return nil, nil
	}
	// Reject a point of another dimensionality before any global ID is
	// assigned: applied, it would fail its shard's whole batch on every
	// replica, and the repairer would drain them all.
	for i, p := range pts {
		if len(p) != c.dim {
			return nil, fmt.Errorf("%w: %d-d point at %d in a %d-d fleet", engine.ErrInvalidWrite, len(p), i, c.dim)
		}
	}
	base := c.nextGID.Add(uint64(len(pts))) - uint64(len(pts))
	gids := make([]uint32, len(pts))
	for i := range gids {
		gids[i] = uint32(base + uint64(i))
	}

	perShard := make([][]vec.Point, len(c.shards))
	perGIDs := make([][]uint32, len(c.shards))
	for i, p := range pts {
		si := c.place(p, gids[i])
		if si < 0 || si >= len(c.shards) {
			return nil, fmt.Errorf("shard: partitioner %s assigned point %d to shard %d of %d", c.cfg.Partitioner.Name(), i, si, len(c.shards))
		}
		// Shards built empty have no replicas; their points roll over to
		// the next non-empty shard (the global ID is what callers see,
		// the shard is an implementation detail).
		for len(c.shards[si].reps) == 0 {
			si = (si + 1) % len(c.shards)
		}
		perShard[si] = append(perShard[si], pts[i])
		perGIDs[si] = append(perGIDs[si], gids[i])
	}

	var errs []error
	for si, sh := range c.shards {
		if len(perShard[si]) == 0 {
			continue
		}
		if err := c.insertShard(sh, perShard[si], perGIDs[si]); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", si, err))
		}
	}
	if len(errs) > 0 {
		return gids, errors.Join(errs...)
	}
	return gids, nil
}

// insertShard applies one shard's slice to every Serving replica.
func (c *Coordinator) insertShard(sh *shardState, pts []vec.Point, gids []uint32) error {
	sh.writeMu.Lock()
	defer sh.writeMu.Unlock()

	// Grow the box copy-on-write BEFORE applying: a KNN that ran between
	// an apply and a later publish could skip this shard while it holds
	// a new nearest neighbor.
	box := sh.box.Load().Clone()
	for _, p := range pts {
		box.Extend(p)
	}
	sh.box.Store(&box)

	// Grow the local→global mapping copy-on-write BEFORE applying: any
	// query that sees the new points on a replica then finds their
	// global IDs already published (the replica's internal lock ordering
	// gives the happens-before edge).
	old := sh.ids()
	grown := make([]uint32, len(old), len(old)+len(gids))
	copy(grown, old)
	grown = append(grown, gids...)
	sh.gids.Store(&grown)
	locals := make([]uint32, len(pts))
	for i := range locals {
		locals[i] = uint32(len(old) + i)
	}

	applied := 0
	var errs []error
	for _, rep := range sh.reps {
		if ReplicaState(rep.state.Load()) != Serving {
			continue // drained replicas resync via rebuild, not via writes
		}
		st := rep.stack()
		if err := st.tree.InsertBatch(st.sto.NewSession(), pts, locals); err != nil {
			// This replica missed a write every sibling took: it is stale
			// from this moment and must stop serving until a rebuild
			// brings it back. drain records the pre-increment writeSeq,
			// so its lag counts this batch.
			c.drain(sh, rep)
			errs = append(errs, fmt.Errorf("replica %d: %w", rep.id, err))
			continue
		}
		applied++
	}
	sh.writeSeq.Add(1)
	c.writes.Inc()
	if applied == 0 {
		errs = append(errs, ErrNoReplicas)
		return errors.Join(errs...)
	}
	// Partial application is not an Insert failure: the write is durable
	// on the replicas that took it, and the failed ones are drained.
	return nil
}
