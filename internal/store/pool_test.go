package store

import (
	"bytes"
	"testing"
)

// poolFixture builds a sim-backed store with a cache of budget bytes and
// one file of nblocks distinct blocks.
func poolFixture(t *testing.T, budget int64, nblocks int) (*Store, *File) {
	t.Helper()
	sto := NewSim(testConfig())
	sto.SetCache(budget)
	f := mustFile(t, sto, "t")
	data := make([]byte, nblocks*64)
	for i := range data {
		data[i] = byte(i / 64)
	}
	mustAppend(t, f, data)
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
