package store

import (
	"fmt"
	"sync"
)

// BufferPool is a shared cache of single blocks, keyed by (file, block
// position), with a configurable byte budget. It sits between
// sessions and the backend: many concurrent queries share hot directory
// and quantized pages, and a cache hit charges zero seek/transfer time —
// which is also how it plugs into the paper's cost model (a cached block
// has no I/O cost, only the CPU charges remain). All methods are safe for
// concurrent use.
//
// The pool is write-through: once a mutation through a File succeeds,
// the pool holds exactly the bytes a verified read of the written blocks
// would return. An append inserts the blocks it wrote, a rewrite
// overwrites or inserts every block it wrote and drops the frames past
// the new end, a truncation drops the frames past the new end, and a
// failed mutation, NewFile and Store.Remove drop the whole file. So a
// read that follows a write finds what the writer just wrote instead of
// fetching it again. A session's miss fill never overwrites a frame, and
// it is discarded when a rewrite, truncation or drop of its file
// completed after its lookup, so bytes fetched before a rewrite cannot
// outlive it.
//
// Frames sit on one of two LRU lists. A File marked EvictFirst (the
// IQ-tree's exact pages, read only to refine) puts its frames on the
// evict-first list, every other file on the ordinary list, and while the
// evict-first list holds any frame the victims come only from it: the
// directory and quantized pages that every query scans stay resident
// while exact pages take what is left. A hit moves a frame to the front
// of its own list. File.Forget drops the frames of a superseded page
// version, which copy-on-write leaves on disk but no new epoch reads.
//
// Frames are recycled rather than reallocated: an evicted frame holds the
// block that displaced it, and the frames of an invalidated file wait in
// a spare list for later inserts. So the pool's memory stays at its
// high-water mark, never above the budget, instead of following its
// fill level: removing a file (an old generation after a compaction
// swap) frees no memory, and the inserts that refill the pool allocate
// no frames.
type BufferPool struct {
	mu     sync.Mutex
	budget int64
	used   int64
	frames map[frameKey]*frame
	lists  [2]lru            // the ordinary and the evict-first list
	spare  []*frame          // dropped frames kept for reuse; used + spare ≤ budget
	gens   map[string]uint64 // per-file count of completed rewrites (see fill)

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
	list       *lru // the pool list the frame is on
	prev, next *frame
}

// lru is an intrusive list of frames, head the most recently used.
type lru struct {
	head, tail *frame
}

// NewBufferPool creates a pool with the given byte budget (> 0).
func NewBufferPool(budgetBytes int64) *BufferPool {
	if budgetBytes <= 0 {
		panic("store: buffer pool budget must be positive")
	}
	return &BufferPool{
		budget: budgetBytes,
		frames: make(map[frameKey]*frame),
		gens:   make(map[string]uint64),
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

// BlockID names one block of a store file.
type BlockID struct {
	File string
	Pos  int
}

// Resident lists the blocks the pool holds, most recently used first:
// those on the ordinary list and those on the evict-first list. It
// changes no recency, so tests and tools can inspect what a sequence of
// writes and reads left resident.
func (p *BufferPool) Resident() (ordinary, evictFirst []BlockID) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out [2][]BlockID
	for i := range p.lists {
		for fr := p.lists[i].head; fr != nil; fr = fr.next {
			out[i] = append(out[i], BlockID{File: fr.key.name, Pos: fr.key.pos})
		}
	}
	return out[0], out[1]
}

// missRun is a maximal contiguous run of blocks absent from the pool.
type missRun struct {
	pos, n int
}

// gather copies every cached block of [pos, pos+nblocks) of the named
// file into its slot of dst (len nblocks*bs) and returns the maximal
// contiguous runs of missing blocks, in order, with the file's rewrite
// generation. Hit/miss counters are updated here; the caller fetches the
// runs and hands them, with the generation, to fill.
func (p *BufferPool) gather(name string, pos, nblocks, bs int, dst []byte) ([]missRun, uint64) {
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
	return misses, p.gens[name]
}

// fill caches the blocks of one run a session fetched (data holds n*bs
// bytes starting at block pos) on the evict-first list when first is set.
// A block already resident is left as is:
// a racing fill or the file's writer put it there. The whole run is
// discarded when the file was rewritten, truncated or invalidated since
// the gather that returned gen, because the fetch may have read the
// bytes that rewrite replaced.
func (p *BufferPool) fill(name string, first bool, pos, bs int, data []byte, gen uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.gens[name] != gen {
		return
	}
	for i := 0; i*bs < len(data); i++ {
		key := frameKey{name: name, pos: pos + i}
		if fr, ok := p.frames[key]; ok {
			p.touch(fr)
			continue
		}
		copy(p.frameFor(key, first, bs), data[i*bs:(i+1)*bs])
	}
	p.evictUntil(p.budget)
}

// write records a successful File mutation: the named file was old
// blocks long and is now end blocks long, and blocks [pos, end) hold
// data, zero past len(data) as the backend pads them. Every written block
// is made resident (on the evict-first list when first is set),
// overwriting a frame, since a racing fill may hold the bytes the write
// replaced; the frames of blocks [end, old) are dropped, each looked up
// by key. When the mutation changed blocks the file already had
// (pos < old), the fills in flight are discarded too.
func (p *BufferPool) write(name string, first bool, old, pos, end, bs int, data []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pos < old {
		p.gens[name]++
	}
	for b := end; b < old; b++ {
		if fr, ok := p.frames[frameKey{name: name, pos: b}]; ok {
			p.drop(fr)
		}
	}
	for b := pos; b < end; b++ {
		key := frameKey{name: name, pos: b}
		var dst []byte
		if fr, ok := p.frames[key]; ok {
			p.touch(fr)
			dst = fr.data
		} else {
			dst = p.frameFor(key, first, bs)
		}
		off := (b - pos) * bs
		clear(dst[copy(dst, data[min(off, len(data)):min(off+bs, len(data))]):])
	}
	p.evictUntil(p.budget)
}

// InvalidateFile drops every frame of the named file and discards the
// fills in flight (called when a file is created, removed or left in an
// unknown state by a failed mutation).
func (p *BufferPool) InvalidateFile(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.gens[name]++
	for key, fr := range p.frames {
		if key.name == name {
			p.drop(fr)
		}
	}
}

// forget drops the frames of blocks [pos, pos+nblocks) of the named file
// and nothing else. The bytes stay valid, so fills in flight are kept.
func (p *BufferPool) forget(name string, pos, nblocks int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for b := pos; b < pos+nblocks; b++ {
		if fr, ok := p.frames[frameKey{name: name, pos: b}]; ok {
			p.drop(fr)
		}
	}
}

// frameFor makes key resident in a frame at the most-recently-used end
// of its list and returns the frame's bytes for the caller to fill: it
// first evicts until the block fits, then takes a spare frame when one is
// left.
func (p *BufferPool) frameFor(key frameKey, first bool, bs int) []byte {
	p.evictUntil(p.budget - int64(bs))
	var fr *frame
	if n := len(p.spare); n > 0 && len(p.spare[n-1].data) == bs {
		fr = p.spare[n-1]
		p.spare = p.spare[:n-1]
	} else {
		fr = &frame{data: make([]byte, bs)}
	}
	fr.key, fr.list = key, &p.lists[0]
	if first {
		fr.list = &p.lists[1]
	}
	p.frames[key] = fr
	p.used += int64(len(fr.data))
	fr.list.pushFront(fr)
	return fr.data
}

// evictUntil evicts least-recently-used frames until at most limit bytes
// are resident, taking them from the evict-first list while it holds any.
func (p *BufferPool) evictUntil(limit int64) {
	for p.used > limit {
		victim := p.lists[1].tail
		if victim == nil {
			victim = p.lists[0].tail
		}
		if victim == nil {
			return
		}
		p.drop(victim)
		p.evictions++
	}
}

// drop removes a frame from the map, its LRU list and the byte count,
// and keeps it as a spare while the resident and spare bytes together
// stay within the budget.
func (p *BufferPool) drop(fr *frame) {
	delete(p.frames, fr.key)
	p.used -= int64(len(fr.data))
	fr.list.unlink(fr)
	if p.used+int64(len(p.spare)+1)*int64(len(fr.data)) <= p.budget {
		p.spare = append(p.spare, fr)
	}
}

// touch moves a frame to the front of its own list.
func (p *BufferPool) touch(fr *frame) {
	if fr.list.head != fr {
		fr.list.unlink(fr)
		fr.list.pushFront(fr)
	}
}

func (l *lru) pushFront(fr *frame) {
	fr.prev = nil
	fr.next = l.head
	if l.head != nil {
		l.head.prev = fr
	}
	l.head = fr
	if l.tail == nil {
		l.tail = fr
	}
}

func (l *lru) unlink(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else {
		l.head = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else {
		l.tail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}
