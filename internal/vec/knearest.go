package vec

import "math"

// KNearest collects the k nearest of the neighbors offered to it, for
// every access method's k-NN search. It is a max-heap on distance: the
// root is the farthest neighbor kept, and its distance, the k-th, is the
// search's pruning bound. Offered bare distances (neighbors with only
// Dist set), it keeps the k smallest of them; that is how the IQ-tree
// and the VA-file keep their k smallest upper bounds.
//
// Call Reset before use; the backing array is kept across resets, so a
// warmed collector allocates nothing.
type KNearest struct {
	k int
	h []Neighbor
}

// Reset empties the collector and sets the number of neighbors it keeps
// (k ≥ 1).
func (c *KNearest) Reset(k int) {
	c.k = k
	c.h = c.h[:0]
}

// Len returns the number of neighbors kept.
func (c *KNearest) Len() int { return len(c.h) }

// Bound returns the k-th distance: that of the farthest neighbor kept
// once k are kept, +Inf before.
func (c *KNearest) Bound() float64 {
	if len(c.h) < c.k {
		return math.Inf(1)
	}
	return c.h[0].Dist
}

// Offer keeps nb if fewer than k neighbors are kept or nb is strictly
// closer than the k-th, which it then replaces, and reports whether nb
// was kept. A neighbor at exactly the k-th distance does not displace
// an earlier one.
func (c *KNearest) Offer(nb Neighbor) bool {
	if len(c.h) < c.k {
		c.h = append(c.h, nb)
		c.up(len(c.h) - 1)
		return true
	}
	if nb.Dist >= c.h[0].Dist {
		return false
	}
	c.h[0] = nb
	c.down(0)
	return true
}

// Pop removes and returns the farthest neighbor kept.
func (c *KNearest) Pop() Neighbor {
	top := c.h[0]
	last := len(c.h) - 1
	c.h[0] = c.h[last]
	c.h = c.h[:last]
	c.down(0)
	return top
}

// Sorted empties the collector into a new slice ordered by increasing
// distance.
func (c *KNearest) Sorted() []Neighbor {
	out := make([]Neighbor, len(c.h))
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = c.Pop()
	}
	return out
}

func (c *KNearest) up(i int) {
	h := c.h
	for i > 0 {
		p := (i - 1) / 2
		if h[p].Dist >= h[i].Dist {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func (c *KNearest) down(i int) {
	h := c.h
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h) && h[l].Dist > h[m].Dist {
			m = l
		}
		if r < len(h) && h[r].Dist > h[m].Dist {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
