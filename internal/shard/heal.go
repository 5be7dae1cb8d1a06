// Self-healing replicas: the repairer goroutine watches every replica,
// drains the ones that stop answering and rebuilds each drained replica
// from a healthy peer by one locked copy of its files, readmitting the
// copy only after a clean scrub (see DESIGN.md §15). The lifecycle is
//
//	Serving → Draining → Rebuilding → Serving
//
// and the rebuild is a drained replica's only way back: whatever drained
// it — a closed engine, a failed query or a missed write — a copy of a
// Serving peer that scrubs clean is the one proof that it holds every
// write and no damage.
package shard

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// ReplicaState is one replica's position in the self-healing lifecycle.
type ReplicaState int32

const (
	// Serving: in the query rotation and receiving writes.
	Serving ReplicaState = iota
	// Draining: out of rotation and skipping writes until the repairer
	// rebuilds it.
	Draining
	// Rebuilding: a rebuild goroutine is copying a peer and will swap
	// the copy in.
	Rebuilding
)

func (s ReplicaState) String() string {
	switch s {
	case Serving:
		return "serving"
	case Draining:
		return "draining"
	case Rebuilding:
		return "rebuilding"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

const (
	// drainAfter drains a Serving replica after this many consecutive
	// failed query attempts. One is enough: routing already prefers
	// clean siblings after one failure, so a broken replica's counter
	// never climbs past one, and rebuilding a replica whose fault was
	// transient costs one locked copy. Engine un-readiness (closed)
	// drains immediately regardless.
	drainAfter = 1
	// healInterval is the repairer's tick.
	healInterval = 5 * time.Millisecond
	// rebuildRetry paces the next attempt after a failed rebuild, so an
	// unrecoverable replica (say, no serving peer) retries on a timer
	// instead of in a hot loop.
	rebuildRetry = 50 * time.Millisecond
)

// repairer is the healing loop: one goroutine per coordinator, started
// by New when SelfHeal is set, stopped by Close.
func (c *Coordinator) repairer() {
	defer c.healWG.Done()
	tick := time.NewTicker(healInterval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-tick.C:
		}
		for _, sh := range c.shards {
			for _, rep := range sh.reps {
				c.tend(sh, rep)
			}
		}
	}
}

// tend advances one replica's lifecycle by at most one step.
func (c *Coordinator) tend(sh *shardState, rep *replica) {
	switch ReplicaState(rep.state.Load()) {
	case Serving:
		ready := rep.stack().eng.Health().Ready()
		failing := rep.fails.Load() >= drainAfter
		if ready && !failing {
			return
		}
		// A flaky-but-alive replica only drains when a sibling can carry
		// the shard; a dead engine cannot serve anyway, so it always
		// drains.
		if ready && failing && sh.servingPeer(rep) == nil {
			return
		}
		c.drain(sh, rep)
	case Draining:
		if time.Now().Before(rep.retryAt) {
			return // the last rebuild failed; wait out rebuildRetry
		}
		c.startRebuild(sh, rep)
	case Rebuilding:
		// Owned by the rebuild goroutine.
	}
}

// drain takes a Serving replica out of rotation; the repairer rebuilds
// it on its next tick. Called from the repairer and from the write path
// (a replica that failed a write has diverged and must stop serving
// immediately).
func (c *Coordinator) drain(sh *shardState, rep *replica) {
	if !rep.state.CompareAndSwap(int32(Serving), int32(Draining)) {
		return
	}
	rep.drainedSeq.Store(sh.writeSeq.Load())
	rep.drainedAt.Store(time.Now().UnixNano())
	c.drains.Inc()
}

// startRebuild transitions Draining → Rebuilding and spawns the rebuild
// goroutine.
func (c *Coordinator) startRebuild(sh *shardState, rep *replica) {
	if !rep.state.CompareAndSwap(int32(Draining), int32(Rebuilding)) {
		return
	}
	c.healWG.Add(1)
	go c.rebuild(sh, rep)
}

// rebuild replaces a replica's whole stack from a healthy peer (see
// rebuildOnce). A failed rebuild returns the replica to Draining, to be
// retried after rebuildRetry. The write of retryAt before the state
// store is visible to the repairer through the state load.
func (c *Coordinator) rebuild(sh *shardState, rep *replica) {
	defer c.healWG.Done()
	if err := c.rebuildOnce(sh, rep); err != nil {
		c.rebuildFails.Inc()
		rep.retryAt = time.Now().Add(rebuildRetry)
		rep.state.Store(int32(Draining))
	}
}

// errNoPeer means no Serving sibling could seed a rebuild.
var errNoPeer = errors.New("shard: no serving peer to rebuild from")

// servingPeer returns a Serving, ready sibling of rep, or nil when there
// is none.
func (sh *shardState) servingPeer(rep *replica) *replica {
	for _, sib := range sh.reps {
		if sib == rep {
			continue
		}
		if ReplicaState(sib.state.Load()) == Serving && sib.stack().eng.Health().Ready() {
			return sib
		}
	}
	return nil
}

// rebuildOnce rebuilds rep in one critical section under the shard
// write lock: copy every file of a Serving peer onto a fresh store
// (Store.CopyFrom wipes it first), scrub the copy, recover it through
// core.Open, start its engine, swap the stack and readmit. A copy whose
// scrub report lists a corrupt block fails the rebuild: the peer holds
// at-rest damage no query has hit yet, and readmitting a copy of it
// would serve that damage through quarantine.
//
// The write lock is what makes the copy consistent. Every file mutation
// on a replica — inserts, log commits, checkpoints, auto-reoptimize
// steps, quarantine repair — happens on the write path, so holding the
// lock freezes the peer's files, and a frozen copy of a WAL-mode tree is
// a crash image that core.Open turns into an exact twin of the peer.
// The peer is chosen under the lock too, so it has taken every write.
// The old engine is closed after the swap, so its in-flight queries
// drain on the old stack.
func (c *Coordinator) rebuildOnce(sh *shardState, rep *replica) error {
	select {
	case <-c.stopCh:
		return errors.New("shard: coordinator closing")
	default:
	}
	sto, err := c.cfg.NewStore(rep.shard, rep.id)
	if err != nil {
		return fmt.Errorf("shard %d replica %d: rebuild store: %w", rep.shard, rep.id, err)
	}

	sh.writeMu.Lock()
	defer sh.writeMu.Unlock()
	peer := sh.servingPeer(rep)
	if peer == nil {
		return errNoPeer
	}
	pst := peer.stack()
	// The hook's store is used as is, so the rebuilt replica keeps the
	// buffer pool and retry policy the hook gave it.
	if err := sto.CopyFrom(pst.sto.Backend()); err != nil {
		return fmt.Errorf("shard %d replica %d: copy: %w", rep.shard, rep.id, err)
	}
	if pst.sto.Checked() {
		if err := sto.EnableChecksums(); err != nil {
			return fmt.Errorf("shard %d replica %d: checksums: %w", rep.shard, rep.id, err)
		}
		// Verify the copied bytes before trusting them with traffic.
		report, err := sto.Scrub()
		if err != nil {
			return fmt.Errorf("shard %d replica %d: scrub: %w", rep.shard, rep.id, err)
		}
		if len(report.Corrupt) > 0 {
			first := report.Corrupt[0]
			return fmt.Errorf("shard %d replica %d: copy of replica %d has %d corrupt blocks, first %s block %d",
				rep.shard, rep.id, peer.id, len(report.Corrupt), first.File, first.Block)
		}
	}
	newTree, err := core.Open(sto)
	if err != nil {
		return fmt.Errorf("shard %d replica %d: recover: %w", rep.shard, rep.id, err)
	}
	eng := engine.New(sto, newTree, c.cfg.Workers)
	old := rep.st.Swap(&stack{sto: sto, tree: newTree, eng: eng})
	rep.fails.Store(0)
	rep.state.Store(int32(Serving))
	c.rebuilds.Inc()
	c.mttr.Observe(time.Since(time.Unix(0, rep.drainedAt.Load())).Seconds())
	c.closeAsync(old.eng)
	return nil
}

// closeAsync closes a replaced engine off the rebuild path (Close
// drains in-flight queries, which must not block the hand-over) but
// still tracked by healWG so Coordinator.Close waits it out.
func (c *Coordinator) closeAsync(eng *engine.Engine) {
	c.healWG.Add(1)
	go func() {
		defer c.healWG.Done()
		eng.Close()
	}()
}

// ReplicaStatus is one replica's row in Status.
type ReplicaStatus struct {
	Shard, Replica int
	State          ReplicaState
	Ready          bool
	Lag            uint64 // write batches missed since the drain (0 when Serving)
	Fails          int32  // consecutive failed query attempts
	Queries        int64
	Failures       int64
}

// Status snapshots every replica's lifecycle state, readiness and lag —
// the view iqtool -shard-status prints and the chaos harness polls for
// all-Serving convergence.
func (c *Coordinator) Status() []ReplicaStatus {
	var out []ReplicaStatus
	for si, sh := range c.shards {
		for ri, rep := range sh.reps {
			h := rep.stack().eng.Health()
			row := ReplicaStatus{
				Shard:    si,
				Replica:  ri,
				State:    ReplicaState(rep.state.Load()),
				Ready:    h.Ready(),
				Fails:    rep.fails.Load(),
				Queries:  h.Queries,
				Failures: h.Failures,
			}
			if row.State != Serving {
				row.Lag = sh.writeSeq.Load() - rep.drainedSeq.Load()
			}
			out = append(out, row)
		}
	}
	return out
}

// Healthy reports whether every replica is Serving and ready — the
// chaos harness's convergence predicate.
func (c *Coordinator) Healthy() bool {
	for _, sh := range c.shards {
		for _, rep := range sh.reps {
			if ReplicaState(rep.state.Load()) != Serving || !rep.stack().eng.Health().Ready() {
				return false
			}
		}
	}
	return true
}
