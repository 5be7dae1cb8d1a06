package xtree

import (
	"encoding/binary"
	"math"

	"repro/internal/page"
	"repro/internal/vec"
)

// Finalize lays the tree out on the store in level order (the natural
// result of the X-tree's page allocation) and serializes every node. It
// must be called after dynamic inserts and before queries; Build calls it
// automatically.
func (t *Tree) Finalize() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finalized {
		return nil
	}
	if err := t.file.SetContents(nil); err != nil {
		return err
	}
	// Level-order enumeration.
	queue := []*node{t.root}
	var order []*node
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		order = append(order, n)
		queue = append(queue, n.children...)
	}
	// Assign positions first (children positions appear in parent pages).
	pos := 0
	for _, n := range order {
		n.pos = pos
		n.blocks = n.units
		if n.leaf {
			// A leaf needs enough blocks for its points (it can briefly
			// exceed one unit between overflow and split at capacity+1).
			need := t.sto.Config().Blocks(8 + len(n.pts)*page.ExactEntrySize(t.dim))
			if need > n.blocks {
				n.blocks = need
			}
		} else {
			// Defensive: a directory node must always fit its entries.
			need := t.sto.Config().Blocks(8 + len(n.children)*(8+8*t.dim))
			if need > n.blocks {
				n.blocks = need
			}
		}
		pos += n.blocks
	}
	for _, n := range order {
		if _, _, err := t.file.Append(t.marshalNode(n)); err != nil {
			return err
		}
	}
	t.finalized = true
	return nil
}

// marshalNode serializes a node, padded to its block allocation.
func (t *Tree) marshalNode(n *node) []byte {
	bs := t.sto.Config().BlockSize
	buf := make([]byte, n.blocks*bs)
	le := binary.LittleEndian
	if n.leaf {
		le.PutUint32(buf[0:], uint32(len(n.pts)))
		buf[4] = 1
		copy(buf[8:], page.MarshalExact(n.pts, n.ids))
		return buf
	}
	le.PutUint32(buf[0:], uint32(len(n.children)))
	buf[4] = 0
	off := 8
	for _, c := range n.children {
		le.PutUint32(buf[off:], uint32(c.pos))
		le.PutUint32(buf[off+4:], uint32(c.blocks))
		off += 8
		for i := 0; i < t.dim; i++ {
			le.PutUint32(buf[off:], math.Float32bits(c.mbr.Lo[i]))
			off += 4
		}
		for i := 0; i < t.dim; i++ {
			le.PutUint32(buf[off:], math.Float32bits(c.mbr.Hi[i]))
			off += 4
		}
	}
	return buf
}

// decodeLeaf extracts the points of a serialized leaf node.
func (t *Tree) decodeLeaf(buf []byte) ([]vec.Point, []uint32) {
	le := binary.LittleEndian
	count := int(le.Uint32(buf[0:]))
	entrySize := page.ExactEntrySize(t.dim)
	pts := make([]vec.Point, count)
	ids := make([]uint32, count)
	for i := 0; i < count; i++ {
		pts[i], ids[i] = page.UnmarshalExactEntry(buf[8+i*entrySize:], t.dim)
	}
	return pts, ids
}

// TreeStats summarizes the physical structure of an X-tree.
type TreeStats struct {
	Points     int
	Height     int
	DirNodes   int
	Supernodes int
	Leaves     int
	TotalBytes int
}

// Stats returns structural statistics.
func (t *Tree) Stats() TreeStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := TreeStats{Points: t.n, Height: t.height, TotalBytes: t.file.Bytes()}
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			st.Leaves++
			return
		}
		st.DirNodes++
		if n.units > 1 {
			st.Supernodes++
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	return st
}
