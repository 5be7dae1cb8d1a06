package store

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// poolFixture builds a sim-backed store with one file of nblocks
// distinct blocks and then attaches a cache of budget bytes, so the pool
// starts empty: the file is written before the pool could take its
// blocks in.
func poolFixture(t *testing.T, budget int64, nblocks int) (*Store, *File) {
	t.Helper()
	sto := NewSim(testConfig())
	f := mustFile(t, sto, "t")
	data := make([]byte, nblocks*64)
	for i := range data {
		data[i] = byte(i / 64)
	}
	mustAppend(t, f, data)
	sto.SetCache(budget)
	return sto, f
}

func TestPoolBudgetEviction(t *testing.T) {
	// Budget of 4 blocks; touching 8 distinct blocks must evict 4.
	sto, f := poolFixture(t, 4*64, 8)
	s := sto.NewSession()
	for i := 0; i < 8; i++ {
		if _, err := s.Read(f, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	ps := sto.Pool().Stats()
	if ps.Frames != 4 || ps.BytesUsed != 4*64 {
		t.Fatalf("pool over budget: %+v", ps)
	}
	if ps.Evictions != 4 {
		t.Fatalf("evictions %d, want 4", ps.Evictions)
	}
	// LRU: the oldest blocks (0..3) are gone, the newest (4..7) resident.
	s2 := sto.NewSession()
	if _, err := s2.Read(f, 4, 4); err != nil {
		t.Fatal(err)
	}
	if s2.Stats.BlocksRead != 0 {
		t.Fatalf("newest blocks should be resident, charged %d", s2.Stats.BlocksRead)
	}
	if _, err := s2.Read(f, 0, 1); err != nil {
		t.Fatal(err)
	}
	if s2.Stats.BlocksRead != 1 {
		t.Fatal("oldest block should have been evicted")
	}
}

func TestPoolLRUTouchOnHit(t *testing.T) {
	// Budget 2 blocks. Read 0, 1, re-read 0 (making 1 the LRU), then read
	// 2: block 1 must be evicted, block 0 must survive.
	sto, f := poolFixture(t, 2*64, 3)
	s := sto.NewSession()
	for _, pos := range []int{0, 1, 0, 2} {
		if _, err := s.Read(f, pos, 1); err != nil {
			t.Fatal(err)
		}
	}
	s2 := sto.NewSession()
	if _, err := s2.Read(f, 0, 1); err != nil {
		t.Fatal(err)
	}
	if s2.Stats.BlocksRead != 0 {
		t.Fatal("block 0 was re-touched and must survive eviction")
	}
	if _, err := s2.Read(f, 1, 1); err != nil {
		t.Fatal(err)
	}
	if s2.Stats.BlocksRead != 1 {
		t.Fatal("block 1 was the LRU victim and must be gone")
	}
}

func TestPoolDetach(t *testing.T) {
	sto, f := poolFixture(t, 8*64, 2)
	s := sto.NewSession()
	if _, err := s.Read(f, 0, 2); err != nil {
		t.Fatal(err)
	}
	sto.SetCache(0) // detach
	if sto.Pool() != nil {
		t.Fatal("SetCache(0) should detach the pool")
	}
	s2 := sto.NewSession()
	if _, err := s2.Read(f, 0, 2); err != nil {
		t.Fatal(err)
	}
	if s2.Stats.BlocksRead != 2 {
		t.Fatal("detached store must charge full cost again")
	}
}

func TestPoolCopiesData(t *testing.T) {
	// Mutating a buffer returned by a pooled read must not corrupt the
	// cache (and vice versa).
	sto, f := poolFixture(t, 8*64, 2)
	s := sto.NewSession()
	buf, err := s.Read(f, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf[0] = 0xFF
	buf2, err := sto.NewSession().Read(f, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if buf2[0] == 0xFF {
		t.Fatal("cache aliased a caller's buffer")
	}
}

func TestPoolStatsString(t *testing.T) {
	sto, f := poolFixture(t, 8*64, 2)
	s := sto.NewSession()
	if _, err := s.Read(f, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(f, 0, 2); err != nil {
		t.Fatal(err)
	}
	ps := sto.Pool().Stats()
	if ps.HitRate() != 0.5 {
		t.Fatalf("hit rate %f, want 0.5", ps.HitRate())
	}
	if ps.String() == "" {
		t.Fatal("empty pool stats string")
	}
}

func TestNewBufferPoolPanicsOnZeroBudget(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBufferPool(0)
}

func TestPoolAppendDoesNotInvalidate(t *testing.T) {
	// Appends only add blocks past the cached extent, so cached frames
	// stay valid and keep serving hits.
	sto, f := poolFixture(t, 8*64, 2)
	s := sto.NewSession()
	want, err := s.Read(f, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantCopy := bytes.Clone(want)
	mustAppend(t, f, []byte{42})
	s2 := sto.NewSession()
	got, err := s2.Read(f, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats.BlocksRead != 0 {
		t.Fatal("append must not invalidate existing frames")
	}
	if !bytes.Equal(got, wantCopy) {
		t.Fatal("cached frames corrupted by append")
	}
}

// TestPoolRecyclesFrames: the frames of a removed file wait as spares
// and the misses that refill the pool take them, an evicted frame takes
// the block that displaced it, and the resident plus spare bytes never
// exceed the budget, so the pool's memory stays at its high-water mark.
func TestPoolRecyclesFrames(t *testing.T) {
	sto := NewSim(testConfig())
	fill := func(name string, nblocks int, first byte) *File {
		f := mustFile(t, sto, name)
		data := make([]byte, nblocks*64)
		for i := range data {
			data[i] = first + byte(i/64)
		}
		mustAppend(t, f, data)
		return f
	}
	a, b := fill("a", 4, 10), fill("b", 8, 20)
	sto.SetCache(4*64 + 10) // after the writes, so the reads start cold; not a whole number of blocks
	p := sto.Pool()
	read := func(f *File, pos, n int, first byte) {
		t.Helper()
		got, err := sto.NewSession().Read(f, pos, n)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if want := first + byte(pos+i/64); v != want {
				t.Fatalf("%s block %d holds %d, want %d", f.Name(), pos+i/64, v, want)
			}
		}
		if p.used+int64(len(p.spare))*64 > p.budget {
			t.Fatalf("resident %d + %d spare frames exceed the budget %d", p.used, len(p.spare), p.budget)
		}
	}
	resident := func() map[*frame]bool {
		m := map[*frame]bool{}
		for _, fr := range p.frames {
			m[fr] = true
		}
		return m
	}

	read(a, 0, 4, 10)
	first := resident()
	if err := sto.Remove(a.Name()); err != nil {
		t.Fatal(err)
	}
	if p.used != 0 || len(p.spare) != 4 {
		t.Fatalf("after removing a: %d bytes resident, %d spares; want 0 and 4", p.used, len(p.spare))
	}
	read(b, 0, 4, 20) // the misses take a's frames
	read(b, 4, 4, 20) // each new block evicts one and takes its frame
	if ps := p.Stats(); ps.Evictions != 4 || ps.Frames != 4 || len(p.spare) != 0 {
		t.Fatalf("pool %+v with %d spares, want 4 evictions, 4 frames, no spares", ps, len(p.spare))
	}
	for fr := range resident() {
		if !first[fr] {
			t.Fatal("the pool allocated a frame while it had one to reuse")
		}
	}
	read(b, 0, 4, 20) // evicted blocks come back with the right bytes
}

// lists returns the keys of the pool's frames, most recent first, on
// the ordinary list and on the evict-first list, after checking that the
// two lists link every resident frame exactly once, each on its own list.
func lists(t *testing.T, p *BufferPool) (ordinary, first []string) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	var out [2][]string
	seen := 0
	for i := range p.lists {
		var prev *frame
		for fr := p.lists[i].head; fr != nil; prev, fr = fr, fr.next {
			if fr.prev != prev || fr.list != &p.lists[i] || p.frames[fr.key] != fr {
				t.Fatalf("frame %s[%d] misplaced on list %d", fr.key.name, fr.key.pos, i)
			}
			out[i] = append(out[i], fmt.Sprintf("%s%d", fr.key.name, fr.key.pos))
			seen++
		}
		if p.lists[i].tail != prev {
			t.Fatalf("list %d: tail is not the last frame", i)
		}
	}
	if seen != len(p.frames) {
		t.Fatalf("%d frames on the lists, %d resident", seen, len(p.frames))
	}
	return out[0], out[1]
}

// twoListFixture builds a store with an ordinary file q and an
// evict-first file x of four blocks each, then attaches a pool of four
// blocks, so it starts empty.
func twoListFixture(t *testing.T) (*Store, *File, *File) {
	t.Helper()
	sto := NewSim(testConfig())
	mk := func(name string) *File {
		f := mustFile(t, sto, name)
		mustAppend(t, f, make([]byte, 4*64))
		return f
	}
	q, x := mk("q"), mk("x")
	x.EvictFirst()
	sto.SetCache(4 * 64)
	return sto, q, x
}

// TestPoolEvictFirstList: while the evict-first list holds a frame, the
// victim is the least recently used frame of that list, however recently
// it was used against the ordinary frames; a hit moves a frame to the
// front of its own list; with the evict-first list empty the ordinary
// list evicts in LRU order.
func TestPoolEvictFirstList(t *testing.T) {
	sto, q, x := twoListFixture(t)
	p := sto.Pool()
	step := func(f *File, pos int, hit bool, wantOrd, wantFirst string) {
		t.Helper()
		s := sto.NewSession()
		if _, err := s.Read(f, pos, 1); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats.BlocksRead == 0; got != hit {
			t.Fatalf("read %s[%d]: hit %v, want %v", f.Name(), pos, got, hit)
		}
		ord, first := lists(t, p)
		if g := strings.Join(ord, " "); g != wantOrd {
			t.Fatalf("after %s[%d] the ordinary list is [%s], want [%s]", f.Name(), pos, g, wantOrd)
		}
		if g := strings.Join(first, " "); g != wantFirst {
			t.Fatalf("after %s[%d] the evict-first list is [%s], want [%s]", f.Name(), pos, g, wantFirst)
		}
	}
	step(x, 0, false, "", "x0")
	step(x, 1, false, "", "x1 x0")
	step(x, 2, false, "", "x2 x1 x0")
	step(q, 0, false, "q0", "x2 x1 x0")
	step(x, 0, true, "q0", "x0 x2 x1")   // a hit stays on its own list
	step(q, 1, false, "q1 q0", "x0 x2")  // LRU within the evict-first list: x1
	step(q, 2, false, "q2 q1 q0", "x0")  // x2 goes before q0, the older frame
	step(q, 3, false, "q3 q2 q1 q0", "") // and so does x0
	step(q, 0, true, "q0 q3 q2 q1", "")
	step(x, 3, false, "q0 q3 q2", "x3") // the evict-first list is empty: LRU of the ordinary list
	step(x, 2, false, "q0 q3 q2", "x2") // an exact block displaces only exact blocks
	if ps := p.Stats(); ps.Evictions != 5 || ps.Frames != 4 {
		t.Fatalf("pool %+v, want 5 evictions and 4 frames", ps)
	}
}

// TestPoolForget: Forget drops the frames of [pos, pos+n) of its file and
// no other frame, counts no eviction, and the forgotten blocks come back
// from the backend on the next read.
func TestPoolForget(t *testing.T) {
	sto, q, x := twoListFixture(t)
	s := sto.NewSession()
	for _, r := range []struct {
		f      *File
		pos, n int
	}{{x, 0, 3}, {q, 1, 1}} {
		if _, err := s.Read(r.f, r.pos, r.n); err != nil {
			t.Fatal(err)
		}
	}
	x.Forget(0, 2)
	x.Forget(5, 3) // past the end: nothing to drop
	q.Forget(2, 2) // no frame there
	if got := residentBlocks(sto.Pool(), "x"); len(got) != 1 || !got[2] {
		t.Fatalf("x keeps %v, want only block 2", got)
	}
	if got := residentBlocks(sto.Pool(), "q"); len(got) != 1 || !got[1] {
		t.Fatalf("q keeps %v, want only block 1", got)
	}
	lists(t, sto.Pool())
	if ps := sto.Pool().Stats(); ps.Evictions != 0 {
		t.Fatalf("Forget counted %d evictions", ps.Evictions)
	}
	s = sto.NewSession()
	if _, err := s.Read(x, 0, 4); err != nil {
		t.Fatal(err)
	}
	if s.Stats.BlocksRead != 3 {
		t.Fatalf("x[0,4) after Forget fetched %d blocks, want 3 (blocks 0, 1 and 3)", s.Stats.BlocksRead)
	}
	mustFile(t, NewSim(testConfig()), "n").Forget(0, 1) // without a pool, a no-op
}

// TestPoolDropsFindBothLists: a file marked EvictFirst after some of its
// blocks entered the pool has frames on both lists (the mark applies to
// the blocks it brings in from then on); truncation and InvalidateFile
// drop them from either list.
func TestPoolDropsFindBothLists(t *testing.T) {
	sto := NewSim(testConfig())
	q := mustFile(t, sto, "q")
	mustAppend(t, q, make([]byte, 4*64))
	x := mustFile(t, sto, "x")
	mustAppend(t, x, make([]byte, 4*64))
	sto.SetCache(4 * 64)
	read := func(f *File, pos int) {
		t.Helper()
		if _, err := sto.NewSession().Read(f, pos, 1); err != nil {
			t.Fatal(err)
		}
	}
	read(x, 0)
	read(x, 1)
	x.EvictFirst()
	read(x, 2)
	read(x, 3)
	if ord, first := lists(t, sto.Pool()); len(ord) != 2 || len(first) != 2 {
		t.Fatalf("lists [%v] [%v], want two frames of x on each", ord, first)
	}
	if err := x.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if got := residentBlocks(sto.Pool(), "x"); len(got) != 1 || !got[0] {
		t.Fatalf("x keeps %v after Truncate(1), want block 0", got)
	}
	lists(t, sto.Pool())
	read(q, 0)
	read(x, 0)
	mustAppend(t, x, make([]byte, 64)) // block 1 again, on the evict-first list
	sto.Pool().InvalidateFile("x")
	ord, first := lists(t, sto.Pool())
	if len(first) != 0 || strings.Join(ord, " ") != "q0" {
		t.Fatalf("after InvalidateFile(x) the lists are [%v] [%v], want [q0] []", ord, first)
	}
}
