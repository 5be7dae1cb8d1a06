package xtree

import (
	"math"
	"sort"

	"repro/internal/vec"
)

// splitLeaf performs the R*-tree topological split on an overfull leaf and
// returns the new sibling (leaves never become supernodes).
func (t *Tree) splitLeaf(n *node) *node {
	axis, idx := chooseLeafSplit(n.pts, t.leafCap)
	ord := sortedOrder(len(n.pts), func(a, b int) bool { return n.pts[a][axis] < n.pts[b][axis] })

	var lp, rp []vec.Point
	var li, ri []uint32
	for i, o := range ord {
		if i < idx {
			lp = append(lp, n.pts[o])
			li = append(li, n.ids[o])
		} else {
			rp = append(rp, n.pts[o])
			ri = append(ri, n.ids[o])
		}
	}
	sib := &node{leaf: true, pts: rp, ids: ri, mbr: vec.MBROf(rp), splitDim: axis, historyDim: -1, units: 1}
	n.pts, n.ids = lp, li
	n.mbr = vec.MBROf(lp)
	n.splitDim = axis
	return sib
}

// chooseLeafSplit selects the split axis minimizing the margin sum and the
// split index minimizing overlap (then volume) among the R*-tree's
// candidate distributions.
func chooseLeafSplit(pts []vec.Point, capacity int) (axis, index int) {
	d := len(pts[0])
	m := len(pts)
	minEntries := maxInt(1, (m*35)/100)
	bestMargin := math.Inf(1)
	axis = 0
	for dim := 0; dim < d; dim++ {
		ord := sortedOrder(m, func(a, b int) bool { return pts[a][dim] < pts[b][dim] })
		ps := buildPrefixSuffix(ord, func(i int) vec.MBR { return pointMBR(pts[i]) })
		margin := 0.0
		forEachDistribution(m, minEntries, func(k int) {
			lm, rm := ps.groups(k)
			margin += lm.Margin() + rm.Margin()
		})
		if margin < bestMargin {
			bestMargin = margin
			axis = dim
		}
	}
	ord := sortedOrder(m, func(a, b int) bool { return pts[a][axis] < pts[b][axis] })
	ps := buildPrefixSuffix(ord, func(i int) vec.MBR { return pointMBR(pts[i]) })
	bestOverlap, bestVol := math.Inf(1), math.Inf(1)
	index = m / 2
	forEachDistribution(m, minEntries, func(k int) {
		lm, rm := ps.groups(k)
		ov := lm.OverlapVolume(rm)
		vol := lm.Volume() + rm.Volume()
		if ov < bestOverlap || (ov == bestOverlap && vol < bestVol) {
			bestOverlap, bestVol = ov, vol
			index = k
		}
	})
	return axis, index
}

// splitDir splits an overfull directory node following the X-tree
// algorithm: try the topological (R*) split; if its overlap exceeds
// maxOverlap, try an overlap-minimal split derived from the split history;
// if that would be unbalanced, create a supernode instead (returning nil).
func (t *Tree) splitDir(n *node) *node {
	children := n.children
	m := len(children)
	minEntries := maxInt(2, int(float64(m)*minFanoutRatio))

	axis, idx, overlapRatio := chooseDirSplit(children)
	if overlapRatio <= maxOverlap {
		return t.applyDirSplit(n, axis, idx)
	}

	// Overlap-minimal split guided by the split history (X-tree paper,
	// Sec. 4.2): only the root dimension of the node's split history is
	// guaranteed to admit an overlap-free partition of the children.
	if n.historyDim >= 0 {
		if k, ok := overlapFreeSplitAlong(children, n.historyDim, minEntries); ok {
			return t.applyDirSplit(n, n.historyDim, k)
		}
	}

	// No balanced overlap-free split: enlarge into a supernode.
	n.units++
	return nil
}

// applyDirSplit splits directory node n at index idx of the ordering along
// axis, returning the new sibling.
func (t *Tree) applyDirSplit(n *node, axis, idx int) *node {
	children := n.children
	ord := sortedOrder(len(children), func(a, b int) bool {
		if children[a].mbr.Lo[axis] != children[b].mbr.Lo[axis] {
			return children[a].mbr.Lo[axis] < children[b].mbr.Lo[axis]
		}
		return children[a].mbr.Hi[axis] < children[b].mbr.Hi[axis]
	})
	var left, right []*node
	for i, o := range ord {
		if i < idx {
			left = append(left, children[o])
		} else {
			right = append(right, children[o])
		}
	}
	sib := &node{leaf: false, children: right, mbr: mbrOfNodes(right), splitDim: axis, historyDim: n.historyDim, units: t.unitsFor(len(right))}
	n.children = left
	n.mbr = mbrOfNodes(left)
	n.splitDim = axis
	// A successful split shrinks a supernode back to the smallest unit
	// count that still holds its group (usually 1).
	n.units = t.unitsFor(len(left))
	return sib
}

// unitsFor returns the number of node units needed for `entries` children.
func (t *Tree) unitsFor(entries int) int {
	u := (entries + t.dirCap - 1) / t.dirCap
	if u < 1 {
		u = 1
	}
	return u
}

// chooseDirSplit runs the R*-style topological split over child MBRs and
// returns the chosen axis, split index, and the overlap ratio (overlap
// volume divided by the volume of the smaller group, the X-tree's
// criterion; 0 when volumes degenerate).
func chooseDirSplit(children []*node) (axis, index int, overlapRatio float64) {
	m := len(children)
	minEntries := maxInt(2, (m*35)/100)
	bestMargin := math.Inf(1)
	for dim := 0; dim < children[0].mbr.Dim(); dim++ {
		ord := sortedOrder(m, func(a, b int) bool { return children[a].mbr.Lo[dim] < children[b].mbr.Lo[dim] })
		ps := buildPrefixSuffix(ord, func(i int) vec.MBR { return children[i].mbr })
		margin := 0.0
		forEachDistribution(m, minEntries, func(k int) {
			lm, rm := ps.groups(k)
			margin += lm.Margin() + rm.Margin()
		})
		if margin < bestMargin {
			bestMargin = margin
			axis = dim
		}
	}
	ord := sortedOrder(m, func(a, b int) bool { return children[a].mbr.Lo[axis] < children[b].mbr.Lo[axis] })
	ps := buildPrefixSuffix(ord, func(i int) vec.MBR { return children[i].mbr })
	bestOverlap, bestVol := math.Inf(1), math.Inf(1)
	index = m / 2
	var bestRatio float64
	forEachDistribution(m, minEntries, func(k int) {
		lm, rm := ps.groups(k)
		ov := lm.OverlapVolume(rm)
		vol := lm.Volume() + rm.Volume()
		if ov < bestOverlap || (ov == bestOverlap && vol < bestVol) {
			bestOverlap, bestVol = ov, vol
			index = k
			if small := math.Min(lm.Volume(), rm.Volume()); small > 0 {
				bestRatio = ov / small
			} else if ov > 0 {
				bestRatio = 1
			} else {
				bestRatio = 0
			}
		}
	})
	return axis, index, bestRatio
}

// overlapFreeSplitAlong looks for a split index along the given dimension
// yielding two groups whose MBRs do not overlap in that dimension, with
// both groups holding at least minEntries children. The X-tree's split
// history guarantees such a partition exists along the subtree's root
// split dimension (though possibly an unbalanced one, which is rejected
// here in favor of a supernode).
func overlapFreeSplitAlong(children []*node, dim, minEntries int) (index int, ok bool) {
	m := len(children)
	ord := sortedOrder(m, func(a, b int) bool { return children[a].mbr.Lo[dim] < children[b].mbr.Lo[dim] })
	maxHi := math.Inf(-1)
	for i := 0; i < m-1; i++ {
		maxHi = math.Max(maxHi, float64(children[ord[i]].mbr.Hi[dim]))
		k := i + 1
		if k < minEntries || m-k < minEntries {
			continue
		}
		if maxHi <= float64(children[ord[k]].mbr.Lo[dim]) {
			return k, true
		}
	}
	return 0, false
}

// --- helpers ---

// forEachDistribution calls fn with every admissible split index k
// (left group = first k elements) per the R*-tree distribution rule.
func forEachDistribution(m, minEntries int, fn func(k int)) {
	for k := minEntries; k <= m-minEntries; k++ {
		fn(k)
	}
}

// prefixSuffix caches cumulative MBRs of an ordering so every candidate
// distribution's group MBRs are available in O(1).
type prefixSuffix struct {
	pre []vec.MBR // pre[i] = MBR of ord[0..i]
	suf []vec.MBR // suf[i] = MBR of ord[i..]
}

func buildPrefixSuffix(ord []int, mbrOf func(int) vec.MBR) prefixSuffix {
	m := len(ord)
	ps := prefixSuffix{pre: make([]vec.MBR, m), suf: make([]vec.MBR, m)}
	acc := mbrOf(ord[0]).Clone()
	ps.pre[0] = acc
	for i := 1; i < m; i++ {
		acc = acc.Clone()
		acc.ExtendMBR(mbrOf(ord[i]))
		ps.pre[i] = acc
	}
	acc = mbrOf(ord[m-1]).Clone()
	ps.suf[m-1] = acc
	for i := m - 2; i >= 0; i-- {
		acc = acc.Clone()
		acc.ExtendMBR(mbrOf(ord[i]))
		ps.suf[i] = acc
	}
	return ps
}

// groups returns the MBRs of the first k elements and the rest.
func (ps prefixSuffix) groups(k int) (vec.MBR, vec.MBR) {
	return ps.pre[k-1], ps.suf[k]
}

func pointMBR(p vec.Point) vec.MBR {
	return vec.MBR{Lo: p, Hi: p}
}

func mbrOfNodes(ns []*node) vec.MBR {
	m := ns[0].mbr.Clone()
	for _, n := range ns[1:] {
		m.ExtendMBR(n.mbr)
	}
	return m
}

func sortedOrder(n int, less func(a, b int) bool) []int {
	ord := make([]int, n)
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return less(ord[a], ord[b]) })
	return ord
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
