// Package scan implements the sequential-scan reference technique of the
// paper's evaluation: all points stored back to back in one file, every
// query reads the entire file once (benefiting from sequential rather
// than random I/O) and computes exact distances.
package scan

import (
	"errors"
	"sort"

	"repro/internal/page"
	"repro/internal/store"
	"repro/internal/vec"
)

// Scan is the flat-file access method.
type Scan struct {
	sto    *store.Store
	file   *store.File
	dim    int
	n      int
	metric vec.Metric
}

// Build stores pts (with ids equal to their indices) in a flat file.
func Build(sto *store.Store, pts []vec.Point, met vec.Metric) (*Scan, error) {
	if len(pts) == 0 {
		return nil, errors.New("scan: empty point set")
	}
	file, err := sto.NewFile("scan.data")
	if err != nil {
		return nil, err
	}
	sc := &Scan{
		sto:    sto,
		file:   file,
		dim:    len(pts[0]),
		n:      len(pts),
		metric: met,
	}
	ids := make([]uint32, len(pts))
	for i := range ids {
		ids[i] = uint32(i)
	}
	if _, _, err := sc.file.Append(page.MarshalExact(pts, ids)); err != nil {
		return nil, err
	}
	return sc, nil
}

// Len returns the number of stored points.
func (sc *Scan) Len() int { return sc.n }

// Dim returns the dimensionality.
func (sc *Scan) Dim() int { return sc.dim }

// KNN returns the k nearest neighbors of q by scanning the whole file.
func (sc *Scan) KNN(s *store.Session, q vec.Point, k int) ([]vec.Neighbor, error) {
	if k <= 0 {
		return nil, nil
	}
	if k > sc.n {
		k = sc.n
	}
	var res vec.KNearest
	res.Reset(k)
	if err := sc.scanAll(s, func(p vec.Point, id uint32) {
		res.Offer(vec.Neighbor{ID: id, Dist: sc.metric.Dist(q, p), Point: p})
	}); err != nil {
		return nil, err
	}
	return res.Sorted(), nil
}

// RangeSearch returns all points within eps of q, ordered by distance.
func (sc *Scan) RangeSearch(s *store.Session, q vec.Point, eps float64) ([]vec.Neighbor, error) {
	var out []vec.Neighbor
	if err := sc.scanAll(s, func(p vec.Point, id uint32) {
		if d := sc.metric.Dist(q, p); d <= eps {
			out = append(out, vec.Neighbor{ID: id, Dist: d, Point: p})
		}
	}); err != nil {
		return nil, err
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
	return out, nil
}

// scanAll reads the file once sequentially and invokes fn per point.
func (sc *Scan) scanAll(s *store.Session, fn func(vec.Point, uint32)) error {
	buf, err := s.Read(sc.file, 0, sc.file.Blocks())
	if err != nil {
		return err
	}
	tr := s.Trace()
	tr.AddPages(sc.file.Blocks())
	tr.AddCandidates(sc.n) // every point is distance-checked
	s.ChargeDistCPU(sc.file, sc.dim, sc.n)
	entrySize := page.ExactEntrySize(sc.dim)
	for i := 0; i < sc.n; i++ {
		p, id := page.UnmarshalExactEntry(buf[i*entrySize:], sc.dim)
		fn(p, id)
	}
	return nil
}

// WindowQuery returns all points inside the query window w, in file
// order. Dist fields of the results are 0.
func (sc *Scan) WindowQuery(s *store.Session, w vec.MBR) ([]vec.Neighbor, error) {
	var out []vec.Neighbor
	if err := sc.scanAll(s, func(p vec.Point, id uint32) {
		if w.Contains(p) {
			out = append(out, vec.Neighbor{ID: id, Point: p})
		}
	}); err != nil {
		return nil, err
	}
	return out, nil
}
