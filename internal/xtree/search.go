package xtree

import (
	"errors"
	"math"
	"sort"

	"repro/internal/store"
	"repro/internal/vec"
)

// errNotFinalized reports a query against a tree with pending inserts.
var errNotFinalized = errors.New("xtree: query before Finalize")

// KNN returns the k nearest neighbors of q using the Hjaltason/Samet
// best-first algorithm. Every visited node costs one random read of the
// node's blocks — the access pattern of a conventional index structure,
// which is exactly what the paper's comparison penalizes in high
// dimensions.
func (t *Tree) KNN(s *store.Session, q vec.Point, k int) ([]vec.Neighbor, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.finalized {
		return nil, errNotFinalized
	}
	if k <= 0 || t.n == 0 {
		return nil, nil
	}
	if k > t.n {
		k = t.n
	}
	met := t.opt.Metric
	tr := s.Trace()
	var pq nodeHeap
	pq.push(nodeItem{dist: t.root.mbr.MinDist(q, met), n: t.root})
	var res resHeap
	prune := func() float64 {
		if len(res) < k {
			return math.Inf(1)
		}
		return res[0].Dist
	}
	for len(pq.items) > 0 {
		it := pq.pop()
		if it.dist >= prune() {
			break
		}
		buf, err := s.Read(t.file, it.n.pos, it.n.blocks)
		if err != nil {
			return nil, err
		}
		tr.AddPages(1)
		if it.n.leaf {
			pts, ids := t.decodeLeaf(buf)
			tr.AddCandidates(len(pts))
			s.ChargeDistCPU(t.file, t.dim, len(pts))
			for i, p := range pts {
				d := met.Dist(q, p)
				if len(res) < k {
					res.push(vec.Neighbor{ID: ids[i], Dist: d, Point: p})
				} else if d < res[0].Dist {
					res[0] = vec.Neighbor{ID: ids[i], Dist: d, Point: p}
					res.fix()
				}
			}
			continue
		}
		s.ChargeApproxCPU(t.file, t.dim, len(it.n.children))
		for _, c := range it.n.children {
			if d := c.mbr.MinDist(q, met); d < prune() {
				pq.push(nodeItem{dist: d, n: c})
			}
		}
	}
	out := make([]vec.Neighbor, len(res))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = res.pop()
	}
	return out, nil
}

// RangeSearch returns all points within eps of q, ordered by distance.
func (t *Tree) RangeSearch(s *store.Session, q vec.Point, eps float64) ([]vec.Neighbor, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.finalized {
		return nil, errNotFinalized
	}
	met := t.opt.Metric
	var out []vec.Neighbor
	var walk func(n *node) error
	walk = func(n *node) error {
		buf, err := s.Read(t.file, n.pos, n.blocks)
		if err != nil {
			return err
		}
		if n.leaf {
			pts, ids := t.decodeLeaf(buf)
			s.ChargeDistCPU(t.file, t.dim, len(pts))
			for i, p := range pts {
				if d := met.Dist(q, p); d <= eps {
					out = append(out, vec.Neighbor{ID: ids[i], Dist: d, Point: p})
				}
			}
			return nil
		}
		s.ChargeApproxCPU(t.file, t.dim, len(n.children))
		for _, c := range n.children {
			if c.mbr.MinDist(q, met) <= eps {
				if err := walk(c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if t.root.mbr.MinDist(q, met) <= eps {
		if err := walk(t.root); err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	return out, nil
}

// --- heaps ---

type nodeItem struct {
	dist float64
	n    *node
}

type nodeHeap struct{ items []nodeItem }

func (h *nodeHeap) push(it nodeItem) {
	h.items = append(h.items, it)
	a := h.items
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].dist <= a[i].dist {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *nodeHeap) pop() nodeItem {
	a := h.items
	top := a[0]
	a[0] = a[len(a)-1]
	h.items = a[:len(a)-1]
	a = h.items
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(a) && a[l].dist < a[m].dist {
			m = l
		}
		if r < len(a) && a[r].dist < a[m].dist {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

type resHeap []vec.Neighbor

func (h *resHeap) push(nb vec.Neighbor) {
	*h = append(*h, nb)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].Dist >= a[i].Dist {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *resHeap) fix() {
	a := *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(a) && a[l].Dist > a[m].Dist {
			m = l
		}
		if r < len(a) && a[r].Dist > a[m].Dist {
			m = r
		}
		if m == i {
			return
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
}

func (h *resHeap) pop() vec.Neighbor {
	a := *h
	top := a[0]
	a[0] = a[len(a)-1]
	*h = a[:len(a)-1]
	h.fix()
	return top
}

// WindowQuery returns all points inside the query window w.
func (t *Tree) WindowQuery(s *store.Session, w vec.MBR) ([]vec.Neighbor, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if !t.finalized {
		return nil, errNotFinalized
	}
	var out []vec.Neighbor
	var walk func(n *node) error
	walk = func(n *node) error {
		buf, err := s.Read(t.file, n.pos, n.blocks)
		if err != nil {
			return err
		}
		if n.leaf {
			pts, ids := t.decodeLeaf(buf)
			s.ChargeDistCPU(t.file, t.dim, len(pts))
			for i, p := range pts {
				if w.Contains(p) {
					out = append(out, vec.Neighbor{ID: ids[i], Point: p})
				}
			}
			return nil
		}
		s.ChargeApproxCPU(t.file, t.dim, len(n.children))
		for _, c := range n.children {
			if c.mbr.Intersects(w) {
				if err := walk(c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if t.root.mbr.Intersects(w) {
		if err := walk(t.root); err != nil {
			return nil, err
		}
	}
	return out, nil
}
