// Package xtree implements the X-tree (Berchtold, Keim, Kriegel, VLDB
// 1996), the hierarchical-index comparator of the paper's evaluation.
//
// The X-tree extends the R*-tree with two mechanisms for high-dimensional
// data: an overlap-minimal split that falls back to the nodes' split
// history, and *supernodes* — directory nodes enlarged to a multiple of
// the block size whenever no balanced overlap-free split exists, so that
// a degenerating directory turns into (cheap) larger sequential reads
// instead of exponentially overlapping subtrees.
//
// Construction is dynamic (one insert per point, R*-style choose-subtree).
// Queries charge their page accesses to a simulated disk session; every
// node access is a random read of the node's blocks, which is how
// conventional index structures behave (paper Section 2).
package xtree

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/page"
	"repro/internal/store"
	"repro/internal/vec"
)

// The X-tree paper's split parameters.
const (
	// maxOverlap is the overlap ratio above which a topological split is
	// rejected in favor of an overlap-minimal split or a supernode (the
	// paper's MAX_OVERLAP).
	maxOverlap = 0.2
	// minFanoutRatio is the minimum fraction of entries each side of an
	// overlap-minimal split must receive; below it the split is considered
	// unbalanced and a supernode is created.
	minFanoutRatio = 0.35
)

// Options configures an X-tree.
type Options struct {
	// Metric is the query metric. Default Euclidean.
	Metric vec.Metric
}

// DefaultOptions returns the X-tree paper's configuration.
func DefaultOptions() Options {
	return Options{Metric: vec.Euclidean}
}

// node is an X-tree node. Directory nodes hold child references; leaves
// hold points. Supernodes span multiple block units.
type node struct {
	leaf     bool
	mbr      vec.MBR
	children []*node     // directory node payload
	pts      []vec.Point // leaf payload
	ids      []uint32
	units    int // size in node units (≥ 2 means supernode)
	splitDim int // dimension of the split that created this node (-1 for root)
	// historyDim is the root dimension of this node's split history: the
	// dimension of the first split among its children. The X-tree's
	// overlap-minimal split is only guaranteed (and only attempted) along
	// this dimension.
	historyDim int
	pos        int // block position after finalize
	blocks     int // size in blocks after finalize
}

// Tree is an X-tree over a block store.
type Tree struct {
	mu        sync.RWMutex
	sto       *store.Store
	file      *store.File
	opt       Options
	dim       int
	n         int
	root      *node
	dirCap    int // directory entries per node unit
	leafCap   int // points per leaf
	height    int
	finalized bool
}

// New creates an empty X-tree for points of dimensionality dim.
func New(sto *store.Store, dim int, opt Options) (*Tree, error) {
	nodeBytes := sto.Config().BlockSize // a node unit is one block
	file, err := sto.NewFile("x.tree")
	if err != nil {
		return nil, err
	}
	t := &Tree{
		sto:  sto,
		file: file,
		opt:  opt,
		dim:  dim,
		// Node payload = node bytes minus the 8-byte header.
		// Directory entry: child MBR + pointer + size.
		dirCap:  (nodeBytes - 8) / (8*dim + 8),
		leafCap: (nodeBytes - 8) / page.ExactEntrySize(dim),
		root:    &node{leaf: true, mbr: vec.NewMBR(dim), splitDim: -1, historyDim: -1, units: 1},
		height:  1,
	}
	if t.dirCap < 4 || t.leafCap < 2 {
		return nil, fmt.Errorf("xtree: node size too small for dimension %d", dim)
	}
	return t, nil
}

// Build constructs an X-tree by inserting pts one by one (ids are point
// indices) and finalizing the disk layout.
func Build(sto *store.Store, pts []vec.Point, opt Options) (*Tree, error) {
	if len(pts) == 0 {
		return nil, errors.New("xtree: empty point set")
	}
	t, err := New(sto, len(pts[0]), opt)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		t.insert(p, uint32(i))
	}
	if err := t.Finalize(); err != nil {
		return nil, err
	}
	return t, nil
}

// Len returns the number of stored points.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.n
}

// Dim returns the dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Height returns the height of the tree (1 = a single leaf).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// Insert adds a point dynamically. The tree must be re-finalized before
// further queries.
func (t *Tree) Insert(p vec.Point, id uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.insert(p, id)
	t.finalized = false
}

func (t *Tree) insert(p vec.Point, id uint32) {
	if len(p) != t.dim {
		panic(fmt.Sprintf("xtree: insert dimension %d, want %d", len(p), t.dim))
	}
	t.n++
	split := t.insertInto(t.root, p, id)
	if split != nil {
		// Root split: grow the tree by one level.
		old := t.root
		t.root = &node{
			leaf:       false,
			mbr:        unionMBR(old.mbr, split.mbr),
			children:   []*node{old, split},
			splitDim:   -1,
			historyDim: split.splitDim,
			units:      1,
		}
		t.height++
	}
}

// insertInto descends into n; it returns a new sibling if n was split.
func (t *Tree) insertInto(n *node, p vec.Point, id uint32) *node {
	n.mbr.Extend(p)
	if n.leaf {
		n.pts = append(n.pts, p.Clone())
		n.ids = append(n.ids, id)
		if len(n.pts) > t.leafCap {
			return t.splitLeaf(n)
		}
		return nil
	}
	var child *node
	if n.children[0].leaf {
		child = chooseLeafSubtree(n.children, p)
	} else {
		child = chooseSubtree(n.children, p)
	}
	split := t.insertInto(child, p, id)
	if split != nil {
		if n.historyDim < 0 {
			n.historyDim = split.splitDim
		}
		n.children = append(n.children, split)
		if len(n.children) > t.dirCap*n.units {
			return t.splitDir(n)
		}
	}
	return nil
}

// chooseLeafSubtree implements the R*-tree rule for the level above the
// leaves: among the candidates with least volume enlargement, pick the
// one whose enlargement increases the overlap with its siblings least.
// Following the standard R*-tree optimization, only the best few
// candidates by volume enlargement are examined.
func chooseLeafSubtree(children []*node, p vec.Point) *node {
	const maxCandidates = 8
	type cand struct {
		n   *node
		enl float64
	}
	cands := make([]cand, 0, len(children))
	for _, c := range children {
		var enl float64
		if !c.mbr.Contains(p) {
			ext := c.mbr.Clone()
			ext.Extend(p)
			enl = ext.Volume() - c.mbr.Volume()
		}
		cands = append(cands, cand{n: c, enl: enl})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].enl < cands[b].enl })
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	best := cands[0].n
	bestOv := math.Inf(1)
	for _, c := range cands {
		ext := c.n.mbr.Clone()
		ext.Extend(p)
		var dOv float64
		for _, o := range children {
			if o == c.n {
				continue
			}
			dOv += ext.OverlapVolume(o.mbr) - c.n.mbr.OverlapVolume(o.mbr)
		}
		if dOv < bestOv || (dOv == bestOv && c.enl < math.Inf(1) && c.n.mbr.Volume() < best.mbr.Volume()) {
			bestOv = dOv
			best = c.n
		}
	}
	return best
}

// chooseSubtree picks the child needing least volume enlargement
// (ties: least volume).
func chooseSubtree(children []*node, p vec.Point) *node {
	best := children[0]
	bestEnl, bestVol := math.Inf(1), math.Inf(1)
	for _, c := range children {
		vol := c.mbr.Volume()
		var enl float64
		if c.mbr.Contains(p) {
			enl = 0
		} else {
			ext := c.mbr.Clone()
			ext.Extend(p)
			enl = ext.Volume() - vol
		}
		if enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			bestEnl, bestVol = enl, vol
			best = c
		}
	}
	return best
}

func unionMBR(a, b vec.MBR) vec.MBR {
	u := a.Clone()
	u.ExtendMBR(b)
	return u
}
