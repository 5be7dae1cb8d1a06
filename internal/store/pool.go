package store

import (
	"fmt"
	"sync"
)

// BufferPool is a shared LRU cache of single blocks, keyed by (file,
// block position), with a configurable byte budget. It sits between
// sessions and the backend: many concurrent queries share hot directory
// and quantized pages, and a cache hit charges zero seek/transfer time —
// which is also how it plugs into the paper's cost model (a cached block
// has no I/O cost, only the CPU charges remain). All methods are safe for
// concurrent use.
type BufferPool struct {
	mu     sync.Mutex
	budget int64
	used   int64
	frames map[frameKey]*frame
	head   *frame // most recently used
	tail   *frame // least recently used

	hits      uint64
	misses    uint64
	evictions uint64
}

type frameKey struct {
	name string
	pos  int
}

type frame struct {
	key        frameKey
	data       []byte
	prev, next *frame
}

// NewBufferPool creates a pool with the given byte budget (> 0).
func NewBufferPool(budgetBytes int64) *BufferPool {
	if budgetBytes <= 0 {
		panic("store: buffer pool budget must be positive")
	}
	return &BufferPool{
		budget: budgetBytes,
		frames: make(map[frameKey]*frame),
	}
}

// PoolStats is a snapshot of the pool's counters.
type PoolStats struct {
	Hits      uint64 // block lookups served from the pool
	Misses    uint64 // block lookups that went to the backend
	Evictions uint64 // frames evicted to respect the budget
	Frames    int    // resident blocks
	BytesUsed int64  // resident bytes
	Budget    int64  // configured byte budget
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (ps PoolStats) HitRate() float64 {
	total := ps.Hits + ps.Misses
	if total == 0 {
		return 0
	}
	return float64(ps.Hits) / float64(total)
}

// String formats the stats for logs.
func (ps PoolStats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d frames=%d bytes=%d/%d (hit rate %.1f%%)",
		ps.Hits, ps.Misses, ps.Evictions, ps.Frames, ps.BytesUsed, ps.Budget, 100*ps.HitRate())
}

// Stats returns a snapshot of the pool's counters.
func (p *BufferPool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Hits:      p.hits,
		Misses:    p.misses,
		Evictions: p.evictions,
		Frames:    len(p.frames),
		BytesUsed: p.used,
		Budget:    p.budget,
	}
}

// missRun is a maximal contiguous run of blocks absent from the pool.
type missRun struct {
	pos, n int
}

// gather copies every cached block of [pos, pos+nblocks) of the named
// file into its slot of dst (len nblocks*bs) and returns the maximal
// contiguous runs of missing blocks, in order. Hit/miss counters are
// updated here; the caller fetches the runs and hands them to insert.
func (p *BufferPool) gather(name string, pos, nblocks, bs int, dst []byte) []missRun {
	p.mu.Lock()
	defer p.mu.Unlock()
	var misses []missRun
	for i := 0; i < nblocks; i++ {
		fr, ok := p.frames[frameKey{name: name, pos: pos + i}]
		if ok {
			p.hits++
			copy(dst[i*bs:(i+1)*bs], fr.data)
			p.touch(fr)
			continue
		}
		p.misses++
		if len(misses) > 0 && misses[len(misses)-1].pos+misses[len(misses)-1].n == pos+i {
			misses[len(misses)-1].n++
		} else {
			misses = append(misses, missRun{pos: pos + i, n: 1})
		}
	}
	return misses
}

// insert caches the blocks of one fetched run (data holds n*bs bytes
// starting at block pos). Blocks are copied; a block inserted by a racing
// session in the meantime is left as is.
func (p *BufferPool) insert(name string, pos, bs int, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := 0; i*bs < len(data); i++ {
		key := frameKey{name: name, pos: pos + i}
		if fr, ok := p.frames[key]; ok {
			p.touch(fr)
			continue
		}
		fr := &frame{key: key, data: append([]byte(nil), data[i*bs:(i+1)*bs]...)}
		p.frames[key] = fr
		p.used += int64(len(fr.data))
		p.pushFront(fr)
	}
	p.evictOverBudget()
}

// InvalidateFile drops every frame of the named file (called on file
// truncation/replacement).
func (p *BufferPool) InvalidateFile(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for fr := p.tail; fr != nil; {
		prev := fr.prev
		if fr.key.name == name {
			p.drop(fr)
		}
		fr = prev
	}
}

// evictOverBudget evicts least-recently-used frames until the budget is
// respected.
func (p *BufferPool) evictOverBudget() {
	for p.used > p.budget && p.tail != nil {
		p.drop(p.tail)
		p.evictions++
	}
}

// drop removes a frame from the map, the LRU list and the byte count.
func (p *BufferPool) drop(fr *frame) {
	delete(p.frames, fr.key)
	p.used -= int64(len(fr.data))
	p.unlink(fr)
}

// --- intrusive LRU list (head = most recent) ---

func (p *BufferPool) pushFront(fr *frame) {
	fr.prev = nil
	fr.next = p.head
	if p.head != nil {
		p.head.prev = fr
	}
	p.head = fr
	if p.tail == nil {
		p.tail = fr
	}
}

func (p *BufferPool) unlink(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		p.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		p.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

func (p *BufferPool) touch(fr *frame) {
	if p.head == fr {
		return
	}
	p.unlink(fr)
	p.pushFront(fr)
}
