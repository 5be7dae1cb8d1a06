package shard

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vec"
)

// checkedSim is a NewStore hook: a checksummed simulated store.
func checkedSim(_, _ int) (*store.Store, error) {
	sto := store.NewSim(store.DefaultConfig())
	if err := sto.EnableChecksums(); err != nil {
		return nil, err
	}
	return sto, nil
}

// healCoordinator builds a fleet over checksummed stores; with selfHeal
// its replicas are WAL-mode trees under the repairer — the
// configuration the self-healing contract is stated for.
func healCoordinator(t *testing.T, pts []vec.Point, selfHeal bool, reg *obs.Registry) *Coordinator {
	t.Helper()
	c, err := New(Config{Shards: 2, Replicas: 2, SelfHeal: selfHeal, Registry: reg, NewStore: checkedSim}, pts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// waitHealthy polls until every replica is Serving and ready.
func waitHealthy(t *testing.T, c *Coordinator, what string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !c.Healthy() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: fleet never converged to all-Serving: %+v", what, c.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHealKillRebuild: killing a replica's engine mid-flight drains it,
// the repairer rebuilds it from a copy of its sibling, and the fleet
// converges back to all-Serving with unchanged answers.
func TestHealKillRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	pts := randPoints(r, 1600, 6)
	batch := mixedQueries(r, 24, 6)
	want := unshardedBaseline(t, pts, batch)

	reg := &obs.Registry{}
	c := healCoordinator(t, pts, true, reg)
	defer c.Close()

	for i, res := range c.SubmitBatch(batch) {
		if res.Err != nil {
			t.Fatalf("healthy query %d: %v", i, res.Err)
		}
		assertSameResults(t, "healthy", i, batch[i].Kind, res.Neighbors, want[i])
	}

	// Kill one replica while the batch runs, then let the fleet heal.
	killed := c.Engine(1, 1)
	go killed.Close()
	for i, res := range c.SubmitBatch(batch) {
		if res.Err != nil {
			t.Fatalf("chaos query %d lost: %v", i, res.Err)
		}
		assertSameResults(t, "chaos", i, batch[i].Kind, res.Neighbors, want[i])
	}
	waitHealthy(t, c, "after kill")

	if got := reg.Counter("shard.heal.rebuilds").Value(); got < 1 {
		t.Fatalf("fleet healthy with %d rebuilds; the killed replica cannot have recovered without one", got)
	}
	// The rebuilt replica is a new stack: the killed engine is gone from
	// the rotation and the replacement answers directly.
	if c.Engine(1, 1) == killed {
		t.Fatal("replica 1/1 still routes to the killed engine")
	}
	direct := c.Engine(1, 1).Submit(engine.Query{Kind: engine.KNN, Point: pts[0], K: 3})
	if direct.Err != nil {
		t.Fatalf("rebuilt replica: %v", direct.Err)
	}
	for i, res := range c.SubmitBatch(batch) {
		if res.Err != nil {
			t.Fatalf("post-heal query %d: %v", i, res.Err)
		}
		assertSameResults(t, "post-heal", i, batch[i].Kind, res.Neighbors, want[i])
	}
	for _, row := range c.Status() {
		if row.State != Serving || !row.Ready || row.Lag != 0 {
			t.Fatalf("post-heal status %+v", row)
		}
	}
}

// TestHealCorruptAtRestRebuild: at-rest corruption of a replica's
// directory file makes its queries fail typed; the failures drain it,
// and the rebuild replaces it with a verified copy of its sibling.
func TestHealCorruptAtRestRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	pts := randPoints(r, 1600, 6)
	batch := mixedQueries(r, 24, 6)
	want := unshardedBaseline(t, pts, batch)

	reg := &obs.Registry{}
	c := healCoordinator(t, pts, true, reg)
	defer c.Close()

	corruptDir(t, victimStore(t, c, 0, 0))
	// Traffic drives the drain: every attempt on the corrupt replica
	// fails, fails accumulates past drainAfter, the repairer takes over.
	deadline := time.Now().Add(30 * time.Second)
	for !c.Healthy() || reg.Counter("shard.heal.rebuilds").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("corrupt replica never rebuilt: %+v", c.Status())
		}
		for i, res := range c.SubmitBatch(batch) {
			if res.Err != nil {
				t.Fatalf("query %d lost during heal: %v", i, res.Err)
			}
			assertSameResults(t, "during-heal", i, batch[i].Kind, res.Neighbors, want[i])
		}
	}

	if got := reg.Counter("shard.heal.rebuilds").Value(); got < 1 {
		t.Fatalf("fleet healthy with %d rebuilds; the corrupt replica cannot have recovered without one", got)
	}
	// The rebuilt replica must answer directly — the corruption is gone,
	// not routed around.
	direct := c.Engine(0, 0).Submit(engine.Query{Kind: engine.KNN, Point: pts[0], K: 3})
	if direct.Err != nil {
		t.Fatalf("rebuilt replica still failing: %v", direct.Err)
	}
}

// TestHealDamagedReplicaRebuildsOnce: one flipped bit in an exact page
// of a replica fails every query that refines on that page, while a KNN
// at the origin still answers. Traffic at the page drains the replica
// once, and the repairer rebuilds it from a scrubbed copy of its
// sibling: no query is lost, the damage is never readmitted (a
// readmitted replica would fail the next query at the page and drain
// again), and the rebuilt replica answers at the page directly.
func TestHealDamagedReplicaRebuildsOnce(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	pts := randPoints(r, 4000, 6)
	reg := &obs.Registry{}
	c, err := New(Config{Shards: 1, Replicas: 2, SelfHeal: true, Registry: reg, NewStore: checkedSim}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// The exact page of the last directory row is the last block of
	// iq.exact; flip one bit of it beneath replica 0's .crc sidecar.
	rows := c.shards[0].reps[0].stack().tree.DescribePages()
	box := rows[len(rows)-1].MBR
	centre := make(vec.Point, box.Dim())
	for i := range centre {
		centre[i] = (box.Lo[i] + box.Hi[i]) / 2
	}
	bf := victimStore(t, c, 0, 0).Backend().Lookup(core.EFileName)
	if bf == nil {
		t.Fatal("replica 0 has no exact file")
	}
	data, err := bf.ReadBlocks(bf.Blocks()-1, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), data...)
	buf[len(buf)/2] ^= 0x08
	if err := bf.WriteBlocks(bf.Blocks()-1, buf); err != nil {
		t.Fatal(err)
	}
	damaged := c.Engine(0, 0)
	if res := damaged.Submit(engine.Query{Kind: engine.KNN, Point: make(vec.Point, 6), K: 1}); res.Err != nil {
		t.Fatalf("damaged replica fails at the origin too: %v", res.Err)
	}
	q := engine.Query{Kind: engine.KNN, Point: centre, K: 10}
	if res := damaged.Submit(q); res.Err == nil {
		t.Fatal("damaged replica answers at the damaged page")
	}

	drains, rebuilds := reg.Counter("shard.heal.drains"), reg.Counter("shard.heal.rebuilds")
	ask := func(i int) {
		t.Helper()
		if res := c.Submit(q); res.Err != nil {
			t.Fatalf("query %d lost: %v", i, res.Err)
		}
		if d := drains.Value(); d > 1 {
			t.Fatalf("query %d: %d drains and %d rebuilds; the damaged replica came back without a rebuild",
				i, d, rebuilds.Value())
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(30 * time.Second)
	i := 0
	for ; rebuilds.Value() < 1 || !c.Healthy(); i++ {
		if time.Now().After(deadline) {
			t.Fatalf("damaged replica never rebuilt: %d drains, %+v", drains.Value(), c.Status())
		}
		ask(i)
	}
	// The rebuilt replica takes its share of the traffic without
	// draining again.
	for end := i + 100; i < end; i++ {
		ask(i)
	}
	if d := drains.Value(); d != 1 {
		t.Fatalf("%d drains, want 1", d)
	}
	if res := c.Engine(0, 0).Submit(q); res.Err != nil {
		t.Fatalf("rebuilt replica fails at the damaged page: %v", res.Err)
	}
}

// TestHealRejectsDamagedPeerCopy: a rebuild copies its only Serving
// peer, whose quantized file carries at-rest damage no query has read
// yet. The copy's scrub report lists the damaged block, so the rebuild
// fails and the replica stays out of rotation instead of serving the
// damage through quarantine.
func TestHealRejectsDamagedPeerCopy(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	pts := randPoints(r, 1200, 6)
	reg := &obs.Registry{}
	c, err := New(Config{Shards: 1, Replicas: 2, SelfHeal: true, Registry: reg, NewStore: checkedSim}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Flip one bit of replica 0's quantized file beneath its .crc
	// sidecar, before any query reads it.
	bf := victimStore(t, c, 0, 0).Backend().Lookup(core.QFileName)
	if bf == nil {
		t.Fatal("replica 0 has no quantized file")
	}
	data, err := bf.ReadBlocks(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(nil), data...)
	buf[len(buf)/2] ^= 0x08
	if err := bf.WriteBlocks(0, buf); err != nil {
		t.Fatal(err)
	}

	c.Engine(0, 1).Close()
	rebuilds := reg.Counter("shard.heal.rebuilds")
	failures := reg.Counter("shard.heal.rebuild_failures")
	deadline := time.Now().Add(10 * time.Second)
	for rebuilds.Value()+failures.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("no rebuild attempted: %+v", c.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, row := range c.Status() {
		if row.Replica == 1 && row.State == Serving {
			t.Fatalf("replica 1 readmitted from a damaged copy: %+v", row)
		}
	}
	if got := rebuilds.Value(); got != 0 {
		t.Fatalf("%d rebuilds succeeded from a damaged copy", got)
	}
}

// TestHealRebuildKeepsPool: a rebuilt replica serves from the store its
// NewStore hook returned, buffer pool included. The hook attaches a
// 1 MiB pool; after a rebuild the replica's store has a pool of that
// budget, and a query repeated on the replica charges no backend block.
func TestHealRebuildKeepsPool(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	pts := randPoints(r, 1200, 6)
	const budget = 1 << 20
	reg := &obs.Registry{}
	c, err := New(Config{
		Shards:   1,
		Replicas: 2,
		SelfHeal: true,
		Registry: reg,
		NewStore: func(_, _ int) (*store.Store, error) {
			sto := store.NewSim(store.DefaultConfig())
			if err := sto.EnableChecksums(); err != nil {
				return nil, err
			}
			sto.SetCache(budget)
			return sto, nil
		},
	}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Engine(0, 1).Close()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Counter("shard.heal.rebuilds").Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("replica 1 never rebuilt: %+v", c.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitHealthy(t, c, "after rebuild")

	pl := victimStore(t, c, 0, 1).Pool()
	if pl == nil {
		t.Fatal("the rebuilt replica has no buffer pool")
	}
	if got := pl.Stats().Budget; got != budget {
		t.Fatalf("rebuilt replica's pool budget %d, want %d", got, budget)
	}
	q := engine.Query{Kind: engine.KNN, Point: pts[7], K: 5}
	eng := c.Engine(0, 1)
	if res := eng.Submit(q); res.Err != nil {
		t.Fatal(res.Err)
	}
	again := eng.Submit(q)
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	if again.Stats.Seeks != 0 || again.Stats.BlocksRead != 0 {
		t.Fatalf("repeated query on the rebuilt replica charged %+v, want no backend block", again.Stats)
	}
}

// corruptDir flips a bit in every directory block beneath the checksum
// layer (same idiom as the chaos tests).
func corruptDir(t *testing.T, sto *store.Store) {
	t.Helper()
	bf := sto.Backend().Lookup(core.DirFileName)
	if bf == nil {
		t.Fatal("corrupt target has no directory file")
	}
	for b := 0; b < bf.Blocks(); b++ {
		data, err := bf.ReadBlocks(b, 1)
		if err != nil {
			t.Fatal(err)
		}
		buf := append([]byte(nil), data...)
		buf[0] ^= 0x40
		if err := bf.WriteBlocks(b, buf); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHealWritesDuringRebuild: inserts keep landing while a replica is
// drained and rebuilt; the rebuild copies its sibling with every write
// applied so far, the writes wait out the copy, and the healed fleet
// answers exactly like an untouched twin fed the same writes.
func TestHealWritesDuringRebuild(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	pts := randPoints(r, 1600, 6)

	c := healCoordinator(t, pts, true, &obs.Registry{})
	defer c.Close()
	twin := healCoordinator(t, pts, false, &obs.Registry{})
	defer twin.Close()

	kill := c.Engine(0, 1)
	go kill.Close()
	// Writes race the drain and the rebuild: some land while the victim
	// is Serving, some while it is Draining or Rebuilding.
	for round := 0; round < 8; round++ {
		extra := randPoints(r, 40, 6)
		gids, err := c.Insert(extra)
		if err != nil {
			t.Fatalf("round %d: insert: %v", round, err)
		}
		tg, err := twin.Insert(extra)
		if err != nil {
			t.Fatalf("round %d: twin insert: %v", round, err)
		}
		for i := range gids {
			if gids[i] != tg[i] {
				t.Fatalf("round %d: global ID %d, twin %d", round, gids[i], tg[i])
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitHealthy(t, c, "writes during rebuild")

	batch := mixedQueries(r, 24, 6)
	wres := twin.SubmitBatch(batch)
	for i, res := range c.SubmitBatch(batch) {
		if res.Err != nil {
			t.Fatalf("post-heal query %d: %v", i, res.Err)
		}
		if wres[i].Err != nil {
			t.Fatalf("twin query %d: %v", i, wres[i].Err)
		}
		assertSameResults(t, "vs-twin", i, batch[i].Kind, res.Neighbors, canonical(batch[i].Kind, wres[i].Neighbors))
	}
	// Zero lag everywhere: the rebuilt replica holds every write.
	for _, row := range c.Status() {
		if row.Lag != 0 {
			t.Fatalf("replica %d/%d still lags by %d write batches: %+v", row.Shard, row.Replica, row.Lag, row)
		}
	}
}

// TestHealLagAfterCheckpoint: a replica rebuilt from a checkpointed
// peer holds every write, so no replica reports lag once the fleet is
// Serving again — even though the copy's recovery restarts its log
// positions, which a lag measured in log positions would count as
// missed writes.
func TestHealLagAfterCheckpoint(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	pts := randPoints(r, 1600, 6)
	reg := &obs.Registry{}
	c := healCoordinator(t, pts, true, reg)
	defer c.Close()

	for round := 0; round < 4; round++ {
		if _, err := c.Insert(randPoints(r, 40, 6)); err != nil {
			t.Fatalf("round %d: insert: %v", round, err)
		}
	}
	for _, rep := range c.shards[0].reps {
		if err := rep.stack().tree.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	peer := c.shards[0].reps[0].stack().tree
	c.Engine(0, 1).Close()
	waitHealthy(t, c, "rebuild from a checkpointed peer")

	if got := reg.Counter("shard.heal.rebuilds").Value(); got < 1 {
		t.Fatalf("fleet healthy with %d rebuilds; the killed replica cannot have recovered without one", got)
	}
	if got, want := c.shards[0].reps[1].stack().tree.Len(), peer.Len(); got != want {
		t.Fatalf("rebuilt replica holds %d points, its peer %d", got, want)
	}
	for _, row := range c.Status() {
		if row.State != Serving || row.Lag != 0 {
			t.Fatalf("after the heal: %+v", row)
		}
	}
}

// TestStatusLagCountsMissedBatches: a drained replica's lag is the
// number of write batches the shard applied since its drain; Serving
// replicas report none.
func TestStatusLagCountsMissedBatches(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	c := healCoordinator(t, randPoints(r, 800, 6), false, &obs.Registry{})
	defer c.Close()

	sh := c.shards[1]
	c.drain(sh, sh.reps[0])
	for round := 0; round < 3; round++ {
		if _, err := c.Insert(randPoints(r, 20, 6)); err != nil {
			t.Fatalf("round %d: insert: %v", round, err)
		}
	}
	for _, row := range c.Status() {
		want := uint64(0)
		if row.Shard == 1 && row.Replica == 0 {
			want = sh.writeSeq.Load()
		}
		if row.Lag != want {
			t.Fatalf("replica %d/%d lag %d, want %d: %+v", row.Shard, row.Replica, row.Lag, want, row)
		}
	}
	if sh.writeSeq.Load() == 0 {
		t.Fatal("shard 1 took none of the writes")
	}
}
