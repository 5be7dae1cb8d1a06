package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/vec"
)

// Kill-and-recover suite for the WAL-mode tree. The simulated crash is a
// process death with all flushed blocks intact: the Store wrapper (and
// every in-memory structure) is abandoned and the tree is reopened from
// the raw backend, exactly as a restarted process would. Each test
// compares the recovered tree against a "twin" — a second tree on its
// own store that executed only the acknowledged operations and never
// crashed. Because replay pushes the logged operations through the same
// apply path in the same order, the comparison is bit-identical file
// contents, not merely equal query answers.

func walTestOptions() Options {
	opt := DefaultOptions()
	opt.WAL = true
	return opt
}

// buildWALTree builds a WAL-mode tree on a fresh simulated backend.
func buildWALTree(t *testing.T, pts []vec.Point, opt Options) *Tree {
	t.Helper()
	sto := store.NewSim(store.DefaultConfig())
	tr, err := Build(sto, pts, opt)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tr
}

// crashRecover reopens the tree from the raw backend as a fresh process
// would, abandoning the old wrapper and all in-memory state.
func crashRecover(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	rec, err := Open(store.Wrap(tr.sto.Backend()))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	if err := rec.CheckInvariants(); err != nil {
		t.Fatalf("recovered tree invariants: %v", err)
	}
	return rec
}

func sameNeighbor(a, b Neighbor) bool {
	return a.ID == b.ID && a.Dist == b.Dist && a.Point.Equal(b.Point)
}

// assertTreesEqual compares got against want through all four access
// methods (KNN, range search, the full ranking as KNN with k = Len(),
// and the full scan) and then byte-for-byte on the live generation's
// data files.
func assertTreesEqual(t *testing.T, got, want *Tree, queries []vec.Point) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	if got.NumPages() != want.NumPages() {
		t.Fatalf("NumPages %d, want %d", got.NumPages(), want.NumPages())
	}
	gs, ws := got.Stats(), want.Stats()
	for bits, n := range ws.BitsHistogram {
		if gs.BitsHistogram[bits] != n {
			t.Fatalf("bits=%d pages %d, want %d", bits, gs.BitsHistogram[bits], n)
		}
	}
	for qi, q := range queries {
		a := mustKNN(t, got, q, 5)
		b := mustKNN(t, want, q, 5)
		if len(a) != len(b) {
			t.Fatalf("query %d: KNN %d results, want %d", qi, len(a), len(b))
		}
		for i := range a {
			if !sameNeighbor(a[i], b[i]) {
				t.Fatalf("query %d KNN[%d]: %+v, want %+v", qi, i, a[i], b[i])
			}
		}
		ra := mustRange(t, got, q, 0.3)
		rb := mustRange(t, want, q, 0.3)
		if len(ra) != len(rb) {
			t.Fatalf("query %d: range %d results, want %d", qi, len(ra), len(rb))
		}
		for i := range ra {
			if !sameNeighbor(ra[i], rb[i]) {
				t.Fatalf("query %d range[%d]: %+v, want %+v", qi, i, ra[i], rb[i])
			}
		}
		fa := mustKNN(t, got, q, got.Len())
		fb := mustKNN(t, want, q, want.Len())
		if len(fa) != len(fb) {
			t.Fatalf("query %d: ranking of %d neighbors, want %d", qi, len(fa), len(fb))
		}
		for i := range fa {
			if !sameNeighbor(fa[i], fb[i]) {
				t.Fatalf("query %d ranking[%d]: %+v, want %+v", qi, i, fa[i], fb[i])
			}
		}
	}
	assertSamePoints(t, got, want)
	for _, base := range []string{QFileName, EFileName} {
		a := rawFileBytes(t, got, genName(base, got.load().gen.n))
		b := rawFileBytes(t, want, genName(base, want.load().gen.n))
		if len(a) != len(b) {
			t.Fatalf("%s: %d bytes, want %d", base, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: byte %d differs (%#x vs %#x)", base, i, a[i], b[i])
			}
		}
	}
}

// assertSamePoints compares the full (id, point) content of both trees.
func assertSamePoints(t *testing.T, got, want *Tree) {
	t.Helper()
	gp, gi, err := got.AllPoints()
	if err != nil {
		t.Fatal(err)
	}
	wp, wi, err := want.AllPoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(gp) != len(wp) {
		t.Fatalf("AllPoints %d, want %d", len(gp), len(wp))
	}
	type rec struct {
		id uint32
		p  string
	}
	key := func(pts []vec.Point, ids []uint32) []rec {
		out := make([]rec, len(ids))
		for i := range ids {
			out[i] = rec{ids[i], fmt.Sprintf("%v", pts[i])}
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].id != out[b].id {
				return out[a].id < out[b].id
			}
			return out[a].p < out[b].p
		})
		return out
	}
	g, w := key(gp, gi), key(wp, wi)
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("AllPoints[%d]: id %d, want id %d", i, g[i].id, w[i].id)
		}
	}
}

func rawFileBytes(t *testing.T, tr *Tree, name string) []byte {
	t.Helper()
	f := tr.sto.File(name)
	if f == nil {
		t.Fatalf("missing file %s", name)
	}
	if f.Blocks() == 0 {
		return nil
	}
	raw, err := f.ReadRaw(0, f.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte(nil), raw...)
}

// applyInsertDeleteMix runs the same deterministic mutation stream
// against every tree in trs: batches, single inserts, and deletes of
// base points.
func applyInsertDeleteMix(t *testing.T, trs []*Tree, base []vec.Point, extra []vec.Point) {
	t.Helper()
	for _, tr := range trs {
		s := tr.sto.NewSession()
		half := len(extra) / 2
		ids := make([]uint32, half)
		for i := range ids {
			ids[i] = uint32(100000 + i)
		}
		if err := tr.InsertBatch(s, extra[:half], ids); err != nil {
			t.Fatalf("InsertBatch: %v", err)
		}
		for i, p := range extra[half:] {
			if err := tr.Insert(s, p, uint32(200000+i)); err != nil {
				t.Fatalf("Insert: %v", err)
			}
		}
		for i := 0; i < len(base); i += 7 {
			if ok, err := tr.Delete(s, base[i], uint32(i)); err != nil {
				t.Fatalf("Delete %d: %v", i, err)
			} else if !ok {
				t.Fatalf("Delete %d: not found", i)
			}
		}
	}
}

// TestKillAndRecoverInsertHeavy crashes after a stream of acknowledged
// batch inserts, single inserts, and deletes; the recovered tree must be
// bit-identical to a twin that executed the same stream and never died.
func TestKillAndRecoverInsertHeavy(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	base := randPoints(r, 1500, 6)
	extra := randPoints(r, 300, 6)
	live := buildWALTree(t, base, walTestOptions())
	twin := buildWALTree(t, base, walTestOptions())
	applyInsertDeleteMix(t, []*Tree{live, twin}, base, extra)
	rec := crashRecover(t, live)
	assertTreesEqual(t, rec, twin, randPoints(r, 8, 6))

	// The recovered tree keeps accepting durable writes.
	p := randPoints(r, 1, 6)[0]
	for _, tr := range []*Tree{rec, twin} {
		if err := tr.Insert(tr.sto.NewSession(), p, 999999); err != nil {
			t.Fatalf("post-recovery insert: %v", err)
		}
	}
	assertTreesEqual(t, crashRecover(t, rec), twin, randPoints(r, 4, 6))
}

// TestKillAndRecoverDeleteHeavy drives the delete-heavy maintenance
// paths — merges ("undo the split"), a fully emptied tree, and its
// revival by later inserts — then crashes mid-stream. Replay must
// restore exactly the acknowledged prefix, bit-identical to the twin.
func TestKillAndRecoverDeleteHeavy(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	base := randPoints(r, 2500, 4)
	revived := randPoints(r, 400, 4)
	live := buildWALTree(t, base, walTestOptions())
	twin := buildWALTree(t, base, walTestOptions())
	mergedPages := 0
	for _, tr := range []*Tree{live, twin} {
		s := tr.sto.NewSession()
		before := tr.NumPages()
		// Delete 90% — triggers merges — then the rest: empty tree.
		for pass := 0; pass < 2; pass++ {
			for i := range base {
				if (i%10 == 0) != (pass == 1) {
					continue
				}
				if ok, err := tr.Delete(s, base[i], uint32(i)); err != nil {
					t.Fatalf("delete %d: %v", i, err)
				} else if !ok {
					t.Fatalf("delete %d: not found", i)
				}
			}
			if pass == 0 {
				if after := tr.NumPages(); after >= before {
					t.Fatalf("no merges: %d -> %d pages", before, after)
				}
				mergedPages = tr.NumPages()
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("tree not empty: %d", tr.Len())
		}
		// Revive the emptied tree.
		ids := make([]uint32, len(revived))
		for i := range ids {
			ids[i] = uint32(500000 + i)
		}
		if err := tr.InsertBatch(s, revived, ids); err != nil {
			t.Fatalf("revival insert: %v", err)
		}
	}
	_ = mergedPages
	rec := crashRecover(t, live)
	assertTreesEqual(t, rec, twin, randPoints(r, 8, 4))
	for qi, q := range randPoints(r, 6, 4) {
		got := mustKNN(t, rec, q, 3)
		want := bruteKNN(revived, q, 3, vec.Euclidean)
		for i := range got {
			if diff := got[i].Dist - want[i]; diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("query %d: %f vs %f", qi, got[i].Dist, want[i])
			}
		}
	}
}

// TestKillAndRecoverTornTail simulates a crash mid-commit: the final
// WAL record's flush never completed, so its bytes are damaged on
// disk and its writer never got an acknowledgement. Recovery must
// truncate the torn tail — never replay it — and land on the state of
// the acknowledged prefix.
func TestKillAndRecoverTornTail(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	base := randPoints(r, 1200, 6)
	extra := randPoints(r, 120, 6)
	live := buildWALTree(t, base, walTestOptions())
	twin := buildWALTree(t, base, walTestOptions())
	applyInsertDeleteMix(t, []*Tree{live, twin}, base, extra)

	// One more insert on the live tree only; then damage its record. Every
	// record starts on a fresh block, so the damage is confined to this
	// record.
	torn := randPoints(r, 1, 6)[0]
	if err := live.Insert(live.sto.NewSession(), torn, 777777); err != nil {
		t.Fatal(err)
	}
	backend := live.sto.Backend()
	bf := backend.Lookup(WALFileName)
	if bf == nil {
		t.Fatal("no WAL file")
	}
	bs := backend.Config().BlockSize
	last := bf.Blocks() - 1
	raw, err := bf.ReadBlocks(last, 1)
	if err != nil {
		t.Fatal(err)
	}
	blk := make([]byte, bs)
	copy(blk, raw)
	blk[9] ^= 0xff // inside the CRC-covered region of the final record
	if err := bf.WriteBlocks(last, blk); err != nil {
		t.Fatal(err)
	}
	info, _, err := store.InspectWAL(backend, WALFileName)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn {
		t.Fatal("damaged tail not reported as torn")
	}

	rec := crashRecover(t, live)
	assertTreesEqual(t, rec, twin, randPoints(r, 8, 6))
	// The torn insert must be gone.
	got := mustKNN(t, rec, torn, 1)
	if len(got) == 1 && got[0].Dist == 0 && got[0].ID == 777777 {
		t.Fatal("torn (unacknowledged) insert was replayed")
	}
}

// TestKillAndRecoverAcrossCheckpoints forces frequent automatic
// checkpoints mid-stream, so recovery starts from a non-initial
// checkpoint and replays only the records past its watermark.
func TestKillAndRecoverAcrossCheckpoints(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	base := randPoints(r, 1000, 5)
	extra := randPoints(r, 260, 5)
	opt := walTestOptions()
	opt.WALCheckpointBlocks = 8 // tiny: checkpoint every few commits
	live := buildWALTree(t, base, opt)
	twin := buildWALTree(t, base, opt)
	applyInsertDeleteMix(t, []*Tree{live, twin}, base, extra)
	if live.wal.DurableLSN() == 0 {
		t.Fatal("expected a live WAL")
	}
	rec := crashRecover(t, live)
	assertTreesEqual(t, rec, twin, randPoints(r, 8, 5))
}

// TestKillAndRecoverDuringIncrementalReoptimize crashes between steps of
// an unfinished incremental reoptimization: the next generation's files
// exist but its checkpoint was never committed. Recovery must serve the
// old generation plus the WAL and delete the orphaned files.
func TestKillAndRecoverDuringIncrementalReoptimize(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	base := randPoints(r, 1500, 6)
	extra := randPoints(r, 200, 6)
	live := buildWALTree(t, base, walTestOptions())
	twin := buildWALTree(t, base, walTestOptions())
	applyInsertDeleteMix(t, []*Tree{live, twin}, base, extra)

	s := live.sto.NewSession()
	for i := 0; i < 4; i++ { // begin + three page writes, no swap
		if done, err := live.ReoptimizeStep(s); err != nil {
			t.Fatalf("step %d: %v", i, err)
		} else if done {
			t.Fatalf("step %d: finished too early", i)
		}
	}
	if !live.ReoptimizeRunning() {
		t.Fatal("reoptimize not in flight")
	}
	rec := crashRecover(t, live)
	assertTreesEqual(t, rec, twin, randPoints(r, 8, 6))
	if rec.load().gen.n != 0 {
		t.Fatalf("recovered generation %d, want 0", rec.load().gen.n)
	}
	for _, name := range rec.sto.Backend().Names() {
		if strings.Contains(name, ".g1") {
			t.Fatalf("orphaned next-generation file survived recovery: %s", name)
		}
	}
}

// TestKillAndRecoverAfterIncrementalReoptimize crashes after a completed
// incremental reoptimization plus further writes: the generation-1
// checkpoint is the recovery base, and the old generation's files are
// gone.
func TestKillAndRecoverAfterIncrementalReoptimize(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	base := randPoints(r, 1500, 6)
	extra := randPoints(r, 200, 6)
	live := buildWALTree(t, base, walTestOptions())
	twin := buildWALTree(t, base, walTestOptions())
	applyInsertDeleteMix(t, []*Tree{live, twin}, base, extra)
	for _, tr := range []*Tree{live, twin} {
		if err := tr.Reoptimize(); err != nil {
			t.Fatal(err)
		}
	}
	// Post-reoptimize writes land in generation 1 and in the fresh WAL.
	post := randPoints(r, 60, 6)
	for _, tr := range []*Tree{live, twin} {
		s := tr.sto.NewSession()
		for i, p := range post {
			if err := tr.Insert(s, p, uint32(300000+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	rec := crashRecover(t, live)
	if rec.load().gen.n != 1 {
		t.Fatalf("recovered generation %d, want 1", rec.load().gen.n)
	}
	assertTreesEqual(t, rec, twin, randPoints(r, 8, 6))
	for _, name := range rec.sto.Backend().Names() {
		if name == QFileName || name == EFileName {
			t.Fatalf("old generation file survived: %s", name)
		}
	}
}

// TestKillAndRecoverUnderAutoReoptimize: a WAL tree under the
// auto-reoptimize policy takes inserts and deletes across automatic
// swaps — each a checkpoint that becomes the recovery base — and crashes
// while the next run is in flight. Recovery must drop the unfinished
// generation and come back byte-identical to a twin with the same
// policy that never crashed.
func TestKillAndRecoverUnderAutoReoptimize(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	base := randPoints(r, 3000, 6)
	opt := walTestOptions()
	opt.AutoReoptimize = AutoReoptPolicy{GarbageRatio: 0.3}
	live := buildWALTree(t, base, opt)
	twin := buildWALTree(t, base, opt)

	type write struct {
		p  vec.Point
		id uint32
	}
	var present []write // inserted and not yet deleted
	nextID, nextBase := uint32(100000), 0
	inRun := 0 // writes acknowledged since the in-flight run began
	for step := 0; live.load().gen.n < 2 || inRun < 3; step++ {
		if step == 2000 {
			t.Fatalf("no crash point after %d writes: %d swaps, running %v",
				step, live.load().gen.n, live.ReoptimizeRunning())
		}
		var ins []write
		var del write
		switch {
		case step%5 == 4 && len(present) > 0:
			i := r.Intn(len(present)) // some were captured by the run in flight
			del = present[i]
			present = append(present[:i], present[i+1:]...)
		case step%5 == 2:
			del = write{base[nextBase], uint32(nextBase)}
			nextBase++
		default:
			for _, p := range randPoints(r, 1+r.Intn(4), 6) {
				ins = append(ins, write{p, nextID})
				nextID++
			}
			present = append(present, ins...)
		}
		for _, tr := range []*Tree{live, twin} {
			s := tr.sto.NewSession()
			if ins == nil {
				if ok, err := tr.Delete(s, del.p, del.id); err != nil || !ok {
					t.Fatalf("write %d: delete %d found=%v err=%v", step, del.id, ok, err)
				}
				continue
			}
			pts, ids := make([]vec.Point, len(ins)), make([]uint32, len(ins))
			for i, x := range ins {
				pts[i], ids[i] = x.p, x.id
			}
			if err := tr.InsertBatch(s, pts, ids); err != nil {
				t.Fatalf("write %d: %v", step, err)
			}
		}
		if inRun++; !live.ReoptimizeRunning() {
			inRun = 0
		}
	}
	if twin.load().gen.n != live.load().gen.n || !twin.ReoptimizeRunning() {
		t.Fatalf("twin diverged: %d swaps (live %d), running %v",
			twin.load().gen.n, live.load().gen.n, twin.ReoptimizeRunning())
	}
	rec := crashRecover(t, live)
	if rec.load().gen.n != twin.load().gen.n {
		t.Fatalf("recovered generation %d, want %d", rec.load().gen.n, twin.load().gen.n)
	}
	assertTreesEqual(t, rec, twin, randPoints(r, 4, 6))
	for _, name := range rec.sto.Backend().Names() {
		if strings.HasSuffix(name, fmt.Sprintf(".g%d", rec.load().gen.n+1)) {
			t.Fatalf("unfinished generation's file survived recovery: %s", name)
		}
	}
}

// TestIncrementalReoptimizeConvergesToBatch: stepping with exact KNN
// queries running concurrently must land on the same page count,
// quantization levels, and answers as the batch path on an identical
// twin.
func TestIncrementalReoptimizeConvergesToBatch(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	base := randPoints(r, 2000, 8)
	extra := randPoints(r, 250, 8)
	batch := buildWALTree(t, base, walTestOptions())
	incr := buildWALTree(t, base, walTestOptions())
	applyInsertDeleteMix(t, []*Tree{batch, incr}, base, extra)

	if err := batch.Reoptimize(); err != nil {
		t.Fatal(err)
	}

	// Brute-force reference for the live content.
	var flat []vec.Point
	for i, p := range base {
		if i%7 != 0 {
			flat = append(flat, p)
		}
	}
	flat = append(flat, extra...)
	queries := randPoints(r, 5, 8)

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			for _, q := range queries {
				got, err := incr.KNN(incr.sto.NewSession(), q, 3)
				if err != nil {
					done <- err
					return
				}
				want := bruteKNN(flat, q, 3, vec.Euclidean)
				for i := range got {
					if diff := got[i].Dist - want[i]; diff > 1e-5 || diff < -1e-5 {
						done <- errors.New("concurrent query diverged from brute force")
						return
					}
				}
			}
		}
	}()
	s := incr.sto.NewSession()
	steps := 0
	for {
		fin, err := incr.ReoptimizeStep(s)
		if err != nil {
			t.Fatalf("step %d: %v", steps, err)
		}
		steps++
		if fin {
			break
		}
	}
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("concurrent query during reoptimize: %v", err)
	}
	if steps < 3 {
		t.Fatalf("suspiciously few steps: %d", steps)
	}
	assertTreesEqual(t, incr, batch, queries)
}

// TestIncrementalReoptimizeWithConcurrentWrites interleaves inserts and
// deletes between reoptimize steps: the captured deltas must be
// re-applied at the swap, survive a crash through the WAL, and leave the
// tree exact.
func TestIncrementalReoptimizeWithConcurrentWrites(t *testing.T) {
	r := rand.New(rand.NewSource(68))
	base := randPoints(r, 1800, 6)
	mid := randPoints(r, 90, 6)
	live := buildWALTree(t, base, walTestOptions())
	s := live.sto.NewSession()

	content := map[uint32]vec.Point{}
	for i, p := range base {
		content[uint32(i)] = p
	}
	i := 0
	for {
		fin, err := live.ReoptimizeStep(s)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if fin {
			break
		}
		if i < len(mid) {
			if err := live.Insert(s, mid[i], uint32(400000+i)); err != nil {
				t.Fatal(err)
			}
			content[uint32(400000+i)] = mid[i]
		}
		if i%3 == 0 && i/3 < len(base)/2 {
			id := uint32(i / 3)
			if ok, err := live.Delete(s, base[id], id); err != nil {
				t.Fatal(err)
			} else if !ok {
				t.Fatalf("delete %d: not found", id)
			}
			delete(content, id)
		}
		i++
	}
	if err := live.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	var flat []vec.Point
	for _, p := range content {
		flat = append(flat, p)
	}
	check := func(tr *Tree) {
		t.Helper()
		if tr.Len() != len(content) {
			t.Fatalf("Len %d, want %d", tr.Len(), len(content))
		}
		for qi, q := range randPoints(r, 6, 6) {
			got := mustKNN(t, tr, q, 3)
			want := bruteKNN(flat, q, 3, vec.Euclidean)
			for j := range got {
				if diff := got[j].Dist - want[j]; diff > 1e-5 || diff < -1e-5 {
					t.Fatalf("query %d: %f vs %f", qi, got[j].Dist, want[j])
				}
			}
		}
	}
	check(live)
	check(crashRecover(t, live))
}

// TestReplayLegacyInsertRecord: the one-point insert record (kind 1) is
// retired — every insert logs a batch record — so a log that holds one
// fails Open with an error naming the kind instead of recovering.
func TestReplayLegacyInsertRecord(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	live := buildWALTree(t, randPoints(r, 400, 6), walTestOptions())
	p := randPoints(r, 1, 6)[0]
	payload := binary.LittleEndian.AppendUint32(nil, 424242)
	for _, c := range p {
		payload = binary.LittleEndian.AppendUint32(payload, math.Float32bits(c))
	}
	if err := live.wal.Commit(live.wal.Append(1, payload)); err != nil {
		t.Fatal(err)
	}

	_, err := Open(store.Wrap(live.sto.Backend()))
	if err == nil || !strings.Contains(err.Error(), "kind 1") {
		t.Fatalf("Open of a log with a kind-1 record: err = %v, want one naming kind 1", err)
	}
}
