package mathx

import (
	"math"
	"math/rand"
	"testing"
)

func TestBoxSphereIntersectMaxKnownCases(t *testing.T) {
	lo := []float64{0, 0}
	hi := []float64{1, 1}
	// L∞ ball around the center with radius 0.25 lies fully inside.
	if got := BoxSphereIntersectMax(lo, hi, []float64{0.5, 0.5}, 0.25); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("inside cube: %f, want 0.25", got)
	}
	// Ball covering the whole box.
	if got := BoxSphereIntersectMax(lo, hi, []float64{0.5, 0.5}, 10); math.Abs(got-1) > 1e-12 {
		t.Fatalf("covering cube: %f, want 1", got)
	}
	// Disjoint.
	if got := BoxSphereIntersectMax(lo, hi, []float64{5, 5}, 1); got != 0 {
		t.Fatalf("disjoint: %f, want 0", got)
	}
	// Corner overlap: query at the origin corner with r=0.5 overlaps a
	// quarter... for L∞ the overlap is [0,0.5]² = 0.25.
	if got := BoxSphereIntersectMax(lo, hi, []float64{0, 0}, 0.5); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("corner: %f, want 0.25", got)
	}
}

func TestBoxSphereIntersectEuclFullContainment(t *testing.T) {
	// Ball fully inside the box: volume must equal the sphere volume.
	lo := []float64{-10, -10, -10}
	hi := []float64{10, 10, 10}
	got := BoxSphereIntersectEuclFast(lo, hi, []float64{0, 0, 0}, 1)
	want := SphereVolume(3, 1)
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("contained ball: %f, want ≈%f", got, want)
	}
	// Box fully inside the ball: exact.
	lo2 := []float64{-0.1, -0.1, -0.1}
	hi2 := []float64{0.1, 0.1, 0.1}
	got = BoxSphereIntersectEuclFast(lo2, hi2, []float64{0, 0, 0}, 5)
	if math.Abs(got-0.008) > 1e-12 {
		t.Fatalf("contained box: %f, want 0.008", got)
	}
	// Disjoint.
	if got := BoxSphereIntersectEuclFast(lo2, hi2, []float64{9, 9, 9}, 1); got != 0 {
		t.Fatalf("disjoint: %f", got)
	}
}

func TestBoxSphereIntersectEuclHalfBall(t *testing.T) {
	// Query centered on a face: the intersection is half the ball.
	lo := []float64{0, -10}
	hi := []float64{10, 10}
	got := BoxSphereIntersectEuclFast(lo, hi, []float64{0, 0}, 1)
	want := SphereVolume(2, 1) / 2
	if math.Abs(got-want) > 1e-9*want {
		t.Fatalf("half ball: %f, want ≈%f", got, want)
	}
}

// Property: the cube-surrogate intersection volume is bounded by both
// the box volume and the ball volume, never exceeds the L∞ intersection
// (the equal-volume cube is narrower than the ball's bounding cube), and
// is monotone in r.
func TestBoxSphereIntersectProperties(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.Intn(6)
		lo := make([]float64, d)
		hi := make([]float64, d)
		q := make([]float64, d)
		box := 1.0
		for i := 0; i < d; i++ {
			lo[i] = r.Float64()
			hi[i] = lo[i] + 0.05 + r.Float64()
			q[i] = r.Float64()*2 - 0.5
			box *= hi[i] - lo[i]
		}
		rad := 0.05 + r.Float64()
		eucl := BoxSphereIntersectEuclFast(lo, hi, q, rad)
		maxm := BoxSphereIntersectMax(lo, hi, q, rad)
		if eucl < 0 || eucl > box+1e-9 || eucl > SphereVolume(d, rad)+1e-9 {
			t.Fatalf("eucl volume %f out of bounds (box %f, sphere %f)", eucl, box, SphereVolume(d, rad))
		}
		if eucl > maxm+1e-9 {
			t.Fatalf("eucl intersection %f exceeds max-metric %f", eucl, maxm)
		}
		if bigger := BoxSphereIntersectEuclFast(lo, hi, q, rad*2); bigger < eucl-1e-9 {
			t.Fatalf("intersection not monotone in r")
		}
	}
}
