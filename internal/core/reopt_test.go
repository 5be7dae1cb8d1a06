package core

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
)

// finishReopt steps tr's in-flight reoptimization to its swap.
func finishReopt(t *testing.T, tr *Tree) {
	t.Helper()
	s := tr.sto.NewSession()
	for {
		done, err := tr.ReoptimizeStep(s)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return
		}
	}
}

// TestReoptimizeSwapFoldsDeltas: the swap applies the inserts captured
// during a run as one batch, so fifty inserts into one page rewrite that
// page once in the new generation, not fifty times; and an insert
// deleted again in the same run, a duplicate inserted twice and deleted
// once, and deletes of pinned points leave the same contents as a tree
// that never reoptimized. A captured delete whose point is missing fails
// the swap and rolls back to the live generation.
func TestReoptimizeSwapFoldsDeltas(t *testing.T) {
	r := rand.New(rand.NewSource(70))
	base := randPoints(r, 3000, 6)
	tr := buildWALTree(t, base, walTestOptions())
	twin := buildWALTree(t, base, walTestOptions())
	begin := func() {
		t.Helper()
		if _, err := tr.ReoptimizeStep(tr.sto.NewSession()); err != nil || !tr.ReoptimizeRunning() {
			t.Fatalf("begin: running=%v err=%v", tr.ReoptimizeRunning(), err)
		}
	}
	insert := func(p vec.Point, id uint32) {
		t.Helper()
		for _, x := range []*Tree{tr, twin} {
			if err := x.Insert(x.sto.NewSession(), p, id); err != nil {
				t.Fatal(err)
			}
		}
	}
	del := func(p vec.Point, id uint32) {
		t.Helper()
		for _, x := range []*Tree{tr, twin} {
			if ok, err := x.Delete(x.sto.NewSession(), p, id); err != nil || !ok {
				t.Fatalf("delete %d: found=%v err=%v", id, ok, err)
			}
		}
	}

	// Fifty single inserts next to base[0] during one run.
	begin()
	near := make([]vec.Point, 50)
	for i := range near {
		p := base[0].Clone()
		for d := range p {
			p[d] += (r.Float32() - 0.5) * 1e-3
		}
		near[i] = p
		insert(p, uint32(500000+i))
	}
	finishReopt(t, tr)
	if stale := tr.load().gen.q.Blocks() - tr.NumPages(); stale > 2 {
		t.Fatalf("new generation holds %d blocks beyond its %d live pages, want ≤ 2", stale, tr.NumPages())
	}
	assertSamePoints(t, tr, twin)

	// Re-deleted, duplicated and pinned mutations during a second run.
	begin()
	gone := randPoints(r, 1, 6)[0]
	insert(gone, 600000)
	dup := randPoints(r, 1, 6)[0]
	insert(dup, 600001)
	insert(dup, 600001)
	del(gone, 600000)    // undoes the insert above
	del(dup, 600001)     // one copy of dup stays
	del(base[1], 1)      // pinned point
	del(near[3], 500003) // pinned: inserted before this run
	insert(base[2], 2)   // a second copy of a pinned point…
	del(base[2], 2)      // …deleted,
	del(base[2], 2)      // then the pinned copy goes too
	finishReopt(t, tr)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, tr, twin)
	if tr.Len() != twin.Len() {
		t.Fatalf("Len %d, twin %d", tr.Len(), twin.Len())
	}

	// A captured delete of a point neither the pin nor the captured
	// inserts hold fails the swap, which rolls back to the live
	// generation.
	begin()
	gen := tr.load().gen.n
	tr.mu.Lock()
	tr.reopt.deltas = append(tr.reopt.deltas, mutOp{kind: walKindDelete, pts: []vec.Point{gone}, ids: []uint32{600000}})
	tr.mu.Unlock()
	s := tr.sto.NewSession()
	for {
		done, err := tr.ReoptimizeStep(s)
		if err != nil {
			if !strings.Contains(err.Error(), "not found") {
				t.Fatalf("swap error %v, want a missing point", err)
			}
			break
		}
		if done {
			t.Fatal("swap succeeded with a missing point")
		}
	}
	if tr.load().gen.n != gen || tr.ReoptimizeRunning() {
		t.Fatalf("after a failed swap: generation %d (want %d), running %v", tr.load().gen.n, gen, tr.ReoptimizeRunning())
	}
	if tr.sto.File(genName(QFileName, gen+1)) != nil {
		t.Fatal("failed swap left the next generation's quantized file")
	}
	assertSamePoints(t, tr, twin)
}

// TestReoptimizeRunHoldsNoPoints: a run in flight names its planned
// pages' points by index instead of holding them (the points take 88
// bytes each at 16-d), so beginning a run on 20,000 points keeps under
// 24 bytes per point live; and the steps, which read the points back
// from the pinned pages, still lay out the pinned contents after
// writers have rewritten those pages.
func TestReoptimizeRunHoldsNoPoints(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	base := randPoints(r, 20000, 16)
	tr := buildTree(t, base, DefaultOptions())
	twin := buildTree(t, base, DefaultOptions())
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	if _, err := tr.ReoptimizeStep(tr.sto.NewSession()); err != nil || !tr.ReoptimizeRunning() {
		t.Fatalf("begin: running=%v err=%v", tr.ReoptimizeRunning(), err)
	}
	if per := float64(heap()-before) / float64(len(base)); per > 24 {
		t.Fatalf("a run in flight holds %.1f bytes per point, want ≤ 24", per)
	}
	for i := 0; i < len(base); i += 400 {
		p := randPoints(r, 1, 16)[0]
		for _, x := range []*Tree{tr, twin} {
			s := x.sto.NewSession()
			if ok, err := x.Delete(s, base[i], uint32(i)); err != nil || !ok {
				t.Fatalf("delete %d: found=%v err=%v", i, ok, err)
			}
			if err := x.Insert(s, p, uint32(100000+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	finishReopt(t, tr)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	assertSamePoints(t, tr, twin)
}

// TestReoptimizeAbortsOnUnreadablePinnedPage: a step that cannot read
// a planned page's points back from the pinned pages (here every exact
// page is damaged at rest after the plan) fails with the corruption
// and aborts the run: the next generation's files are gone and the
// tree stays at its generation.
func TestReoptimizeAbortsOnUnreadablePinnedPage(t *testing.T) {
	sto, tr, _ := buildCheckedTree(t, 72, 2000, 6, DefaultOptions())
	if len(compressedPages(tr)) == 0 {
		t.Fatal("no page has an exact shadow")
	}
	gen := tr.load().gen.n
	if _, err := tr.ReoptimizeStep(sto.NewSession()); err != nil || !tr.ReoptimizeRunning() {
		t.Fatalf("begin: running=%v err=%v", tr.ReoptimizeRunning(), err)
	}
	bf := sto.Backend().Lookup(EFileName)
	for pos := 0; pos < bf.Blocks(); pos++ {
		data, err := bf.ReadBlocks(pos, 1)
		if err != nil {
			t.Fatal(err)
		}
		mut := append([]byte(nil), data...)
		mut[len(mut)/2] ^= 0x10
		if err := bf.WriteBlocks(pos, mut); err != nil {
			t.Fatal(err)
		}
	}
	_, err := tr.ReoptimizeStep(sto.NewSession())
	var corrupt *store.CorruptBlockError
	if !errors.As(err, &corrupt) {
		t.Fatalf("step over damaged pinned pages: %v, want a CorruptBlockError", err)
	}
	if tr.ReoptimizeRunning() || tr.load().gen.n != gen {
		t.Fatalf("after the failed step: running %v, generation %d (want %d)", tr.ReoptimizeRunning(), tr.load().gen.n, gen)
	}
	for _, name := range []string{QFileName, EFileName} {
		if sto.File(genName(name, gen+1)) != nil {
			t.Fatalf("the aborted run left %s", genName(name, gen+1))
		}
	}
}

// TestFailedWritesLeaveDirectoryAsItWas: nothing of a failed write
// reaches iq.dir or iq.meta. On a tree without a WAL, a reoptimize run
// writes all its pages and captures one insert; then the swap's writes
// are torn, and the swap fails and rolls back. The next insert fails on
// the poisoned store too. Neither touches the directory or the meta
// file, so the backend reopens at the live generation, with the
// captured insert and without the failed one.
func TestFailedWritesLeaveDirectoryAsItWas(t *testing.T) {
	faults := store.NewFaultStore(store.NewSimStore(store.DefaultConfig()), store.FaultConfig{})
	sto := store.Wrap(faults)
	r := rand.New(rand.NewSource(37))
	pts := randPoints(r, 1500, 6)
	tr, err := Build(sto, pts, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := sto.NewSession()
	for tr.reopt == nil || tr.reopt.next < len(tr.reopt.sn.entries) {
		if _, err := tr.ReoptimizeStep(s); err != nil {
			t.Fatal(err)
		}
	}
	ins := randPoints(r, 2, 6)
	if err := tr.Insert(s, ins[0], 90000); err != nil {
		t.Fatal(err)
	}
	before := backendFiles(t, sto)
	unchanged := func(when string) {
		t.Helper()
		after := backendFiles(t, sto)
		for _, name := range []string{DirFileName, MetaFileName} {
			if !bytes.Equal(after[name], before[name]) {
				t.Fatalf("%s: %s changed", when, name)
			}
		}
	}

	sched := map[int]store.FaultKind{}
	for op := faults.Ops(); op < faults.Ops()+64; op++ {
		sched[op] = store.FaultTorn
	}
	faults.SetConfig(store.FaultConfig{Schedule: sched})
	if done, err := tr.ReoptimizeStep(s); err == nil || done {
		t.Fatalf("swap under torn writes: done=%v err=%v", done, err)
	}
	faults.SetConfig(store.FaultConfig{})
	unchanged("after the failed swap")
	if err := tr.Insert(s, ins[1], 90001); err == nil {
		t.Fatal("an insert into a poisoned store succeeded")
	}
	unchanged("after the failed insert")

	reopened, err := Open(store.Wrap(faults))
	if err != nil {
		t.Fatal(err)
	}
	if reopened.load().gen.n != 0 || reopened.Len() != len(pts)+1 {
		t.Fatalf("reopened at generation %d with %d points, want 0 and %d", reopened.load().gen.n, reopened.Len(), len(pts)+1)
	}
	if err := reopened.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	res, err := reopened.KNN(reopened.sto.NewSession(), ins[0], 1)
	if err != nil || len(res) != 1 || res[0].ID != 90000 {
		t.Fatalf("nearest to the captured insert: %v, %v", res, err)
	}
}
