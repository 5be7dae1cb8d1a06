package store

import (
	"bytes"
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
