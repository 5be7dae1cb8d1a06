package core

import (
	"sync"

	"repro/internal/costmodel"
	"repro/internal/page"
	"repro/internal/quantize"
	"repro/internal/store"
	"repro/internal/vec"
)

// snapshot is one immutable epoch of the tree: the decoded level-1
// entries, their quantization grids, the free map, the position→entry
// index of the quantized file, and the generation whose files hold its
// pages. Queries pin a snapshot at entry (an atomic pointer load and a
// read hold on its generation) and run entirely against it, so they
// never observe a half-applied update; writers clone the current
// snapshot, mutate the clone, write new page versions out of place
// (every page rewrite appends — old positions are never overwritten, so
// pinned snapshots keep reading consistent bytes), and publish the clone
// atomically as the next epoch.
type snapshot struct {
	n         int             // live points
	entries   []page.DirEntry // decoded directory
	grids     []quantize.Grid // per-entry quantization grid
	free      []bool          // entries logically deleted
	entryAt   []int32         // quantized page position → owning entry (-1 = stale)
	dirBlocks int             // directory extent in blocks: what the entries take
	dataSpace vec.MBR
	model     costmodel.Model
	gen       *generation // the data files the entries point into
}

// generation is the data files every epoch between two reoptimization
// swaps shares: number n's quantized and exact files, its checkpoint log
// (nil without Options.WAL) and its quarantine set. Queries hold readers
// for read; retire takes the write side before it removes the files.
type generation struct {
	n       uint32
	q, e    *store.File
	ckpt    *store.WAL
	readers sync.RWMutex
	quarMu  sync.Mutex
	quar    map[int]struct{}
}

// pin returns the current snapshot with its generation held for read
// until unpin. A snapshot whose generation is no longer live once held
// is given up for the current one: its files may be gone.
func (t *Tree) pin() *snapshot {
	for {
		sn := t.load()
		sn.gen.readers.RLock()
		if t.load().gen == sn.gen {
			return sn
		}
		sn.gen.readers.RUnlock()
	}
}

// unpin releases a snapshot returned by pin.
func (sn *snapshot) unpin() { sn.gen.readers.RUnlock() }

// clone returns a deep copy of the snapshot at the next epoch. Slices
// and the data-space MBR are copied so the writer can mutate freely;
// DirEntry MBRs are replaced (never extended in place) by the update
// paths, so sharing them with the previous epoch is safe.
func (sn *snapshot) clone() *snapshot {
	c := &snapshot{
		n:         sn.n,
		entries:   append([]page.DirEntry(nil), sn.entries...),
		grids:     append([]quantize.Grid(nil), sn.grids...),
		free:      append([]bool(nil), sn.free...),
		entryAt:   append([]int32(nil), sn.entryAt...),
		dirBlocks: sn.dirBlocks,
		dataSpace: sn.dataSpace.Clone(),
		model:     sn.model,
		gen:       sn.gen,
	}
	c.model.DataSpace = c.dataSpace
	return c
}

// entryIndex maps a quantized page position to the entry owning it in
// this epoch, or -1 when the position is out of range or holds a stale
// page version.
func (sn *snapshot) entryIndex(pos int) int {
	if pos < 0 || pos >= len(sn.entryAt) {
		return -1
	}
	return int(sn.entryAt[pos])
}

// setOwner records entry as the owner of page position pos, growing the
// position index as the quantized file grows.
func (sn *snapshot) setOwner(pos, entry int) {
	for len(sn.entryAt) <= pos {
		sn.entryAt = append(sn.entryAt, -1)
	}
	sn.entryAt[pos] = int32(entry)
}

// clearOwner marks the page position stale, but only if entry still owns
// it (a freshly created entry carries a zero QPos it never owned).
func (sn *snapshot) clearOwner(pos, entry int) {
	if pos >= 0 && pos < len(sn.entryAt) && sn.entryAt[pos] == int32(entry) {
		sn.entryAt[pos] = -1
	}
}

// livePages counts the non-free entries.
func (sn *snapshot) livePages() int {
	n := 0
	for i := range sn.entries {
		if !sn.free[i] {
			n++
		}
	}
	return n
}

// appendEntry reserves a new directory entry with no physical page yet;
// the caller's rewritePage sets it and writePages gives it its first
// quantized page position.
func (sn *snapshot) appendEntry() int {
	sn.entries = append(sn.entries, page.DirEntry{})
	sn.grids = append(sn.grids, quantize.Grid{})
	sn.free = append(sn.free, false)
	return len(sn.entries) - 1
}

// reviveFreeEntry returns a free page slot to service, empty, to be
// filled by the caller's rewrite — used when an insert finds no live
// page because deletes emptied the whole tree. Returns -1 when no free
// slot exists either.
func (sn *snapshot) reviveFreeEntry() int {
	for i := range sn.free {
		if sn.free[i] {
			sn.free[i] = false
			sn.entries[i].Count = 0
			return i
		}
	}
	return -1
}

// pageInfos snapshots the live pages for cost-model evaluation.
func (sn *snapshot) pageInfos() []costmodel.PageInfo {
	infos := make([]costmodel.PageInfo, 0, len(sn.entries))
	for i, e := range sn.entries {
		if sn.free[i] {
			continue
		}
		infos = append(infos, costmodel.PageInfo{MBR: e.MBR, Count: int(e.Count), Bits: int(e.Bits)})
	}
	return infos
}
