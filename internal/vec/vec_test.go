package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randPoint(r *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = float32(r.NormFloat64())
	}
	return p
}

func TestMetricString(t *testing.T) {
	cases := map[Metric]string{Euclidean: "L2", Maximum: "Lmax", Metric(9): "Metric(9)"}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("Metric(%d).String() = %q, want %q", int(m), got, want)
		}
	}
}

func TestDistKnownValues(t *testing.T) {
	p := Point{0, 0}
	q := Point{3, 4}
	if d := Euclidean.Dist(p, q); math.Abs(d-5) > 1e-9 {
		t.Errorf("L2 = %f, want 5", d)
	}
	if d := Maximum.Dist(p, q); math.Abs(d-4) > 1e-9 {
		t.Errorf("Lmax = %f, want 4", d)
	}
}

func TestDistDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Euclidean.Dist(Point{1}, Point{1, 2})
}

// Property: every metric satisfies identity, symmetry and the triangle
// inequality on random points.
func TestMetricAxioms(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, met := range []Metric{Euclidean, Maximum} {
		for trial := 0; trial < 300; trial++ {
			d := 1 + r.Intn(12)
			a, b, c := randPoint(r, d), randPoint(r, d), randPoint(r, d)
			if met.Dist(a, a) != 0 {
				t.Fatalf("%v: d(a,a) != 0", met)
			}
			if math.Abs(met.Dist(a, b)-met.Dist(b, a)) > 1e-12 {
				t.Fatalf("%v: not symmetric", met)
			}
			if met.Dist(a, c) > met.Dist(a, b)+met.Dist(b, c)+1e-9 {
				t.Fatalf("%v: triangle inequality violated", met)
			}
		}
	}
}

// Property: Lmax ≤ L2 for any pair of points.
func TestMetricOrdering(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float32) bool {
		a := Point{ax, ay, az}
		b := Point{bx, by, bz}
		lmax := Maximum.Dist(a, b)
		l2 := Euclidean.Dist(a, b)
		return lmax <= l2+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneAndEqual(t *testing.T) {
	p := Point{1, 2, 3}
	q := p.Clone()
	if !p.Equal(q) {
		t.Fatal("clone not equal")
	}
	q[0] = 9
	if p.Equal(q) {
		t.Fatal("mutating clone affected original comparison")
	}
	if p[0] != 1 {
		t.Fatal("clone aliases original")
	}
	if p.Equal(Point{1, 2}) {
		t.Fatal("points of different dimensions compare equal")
	}
}

func TestMBRExtendContains(t *testing.T) {
	m := NewMBR(3)
	pts := []Point{{0, 1, 2}, {3, -1, 5}, {1, 1, 1}}
	for _, p := range pts {
		m.Extend(p)
	}
	for _, p := range pts {
		if !m.Contains(p) {
			t.Fatalf("MBR does not contain %v", p)
		}
	}
	if m.Contains(Point{10, 0, 0}) {
		t.Fatal("MBR contains a far point")
	}
	if m.Lo[1] != -1 || m.Hi[2] != 5 {
		t.Fatalf("wrong bounds: %v", m)
	}
}

// Property: MBROf contains all its points, and MinDist to a contained
// point is 0 while MaxDist is ≥ the distance to any point of the set.
func TestMBRDistanceProperties(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.Intn(8)
		n := 2 + r.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPoint(r, d)
		}
		m := MBROf(pts)
		q := randPoint(r, d)
		for _, met := range []Metric{Euclidean, Maximum} {
			minD := m.MinDist(q, met)
			maxD := m.MaxDist(q, met)
			if minD > maxD+1e-9 {
				t.Fatalf("MinDist %f > MaxDist %f", minD, maxD)
			}
			for _, p := range pts {
				dp := met.Dist(q, p)
				if dp < minD-1e-5 {
					t.Fatalf("%v: point at %f closer than MinDist %f", met, dp, minD)
				}
				if dp > maxD+1e-5 {
					t.Fatalf("%v: point at %f farther than MaxDist %f", met, dp, maxD)
				}
			}
		}
		for _, p := range pts {
			if m.MinDist(p, Euclidean) != 0 {
				t.Fatal("MinDist from contained point not 0")
			}
		}
		if math.Sqrt(m.MinSqDist(q))-m.MinDist(q, Euclidean) > 1e-9 {
			t.Fatal("MinSqDist inconsistent with MinDist")
		}
	}
}

func TestMBRIntersection(t *testing.T) {
	a := MBR{Lo: Point{0, 0}, Hi: Point{2, 2}}
	b := MBR{Lo: Point{1, 1}, Hi: Point{3, 3}}
	c := MBR{Lo: Point{5, 5}, Hi: Point{6, 6}}
	if !a.Intersects(b) || a.Intersects(c) {
		t.Fatal("intersection predicate wrong")
	}
	if v := a.OverlapVolume(b); math.Abs(v-1) > 1e-9 {
		t.Fatalf("overlap volume %f, want 1", v)
	}
	if v := a.OverlapVolume(c); v != 0 {
		t.Fatalf("overlap volume %f, want 0", v)
	}
}

func TestMBRGeometry(t *testing.T) {
	m := MBR{Lo: Point{0, 0, 0}, Hi: Point{1, 2, 4}}
	if v := m.Volume(); math.Abs(v-8) > 1e-9 {
		t.Fatalf("volume %f", v)
	}
	if g := m.Margin(); math.Abs(g-7) > 1e-9 {
		t.Fatalf("margin %f", g)
	}
	dim, ext := m.MaxSide()
	if dim != 2 || math.Abs(ext-4) > 1e-9 {
		t.Fatalf("max side (%d, %f)", dim, ext)
	}
}

func TestMBRContainsMBRAndUnion(t *testing.T) {
	a := MBR{Lo: Point{0, 0}, Hi: Point{4, 4}}
	b := MBR{Lo: Point{1, 1}, Hi: Point{2, 2}}
	// A box contains another exactly when it contains both its corners.
	containsMBR := func(m, o MBR) bool { return m.Contains(o.Lo) && m.Contains(o.Hi) }
	if !containsMBR(a, b) || containsMBR(b, a) {
		t.Fatal("corner containment wrong")
	}
	c := b.Clone()
	c.ExtendMBR(a)
	if !containsMBR(c, a) || !containsMBR(c, b) {
		t.Fatal("ExtendMBR did not produce a union cover")
	}
}
