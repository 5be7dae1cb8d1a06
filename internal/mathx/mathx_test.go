package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSphereVolumeKnownValues(t *testing.T) {
	cases := []struct {
		d    int
		r    float64
		want float64
	}{
		{1, 1, 2},               // interval of length 2
		{2, 1, math.Pi},         // unit disk
		{3, 1, 4 * math.Pi / 3}, // unit ball
		{2, 2, 4 * math.Pi},     // scaled disk
		{3, 0.5, math.Pi / 6},   // scaled ball
		{4, 1, math.Pi * math.Pi / 2},
	}
	for _, c := range cases {
		if got := SphereVolume(c.d, c.r); math.Abs(got-c.want) > 1e-9*c.want {
			t.Errorf("SphereVolume(%d, %f) = %f, want %f", c.d, c.r, got, c.want)
		}
	}
	if SphereVolume(3, -1) != 0 {
		t.Error("negative radius should give 0")
	}
}

func TestCubeVolume(t *testing.T) {
	if got := CubeVolume(3, 0.5); math.Abs(got-1) > 1e-12 {
		t.Errorf("CubeVolume(3, 0.5) = %f, want 1", got)
	}
	if got := CubeVolume(2, 2); math.Abs(got-16) > 1e-12 {
		t.Errorf("CubeVolume(2, 2) = %f, want 16", got)
	}
}

// Property: SphereRadius inverts SphereVolume and CubeRadius inverts
// CubeVolume across dimensions and radii.
func TestRadiusVolumeRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		d := 1 + r.Intn(20)
		radius := 0.01 + r.Float64()*5
		if got := SphereRadius(d, SphereVolume(d, radius)); math.Abs(got-radius) > 1e-9*radius {
			t.Fatalf("sphere roundtrip d=%d r=%f got %f", d, radius, got)
		}
		if got := CubeRadius(d, CubeVolume(d, radius)); math.Abs(got-radius) > 1e-9*radius {
			t.Fatalf("cube roundtrip d=%d r=%f got %f", d, radius, got)
		}
	}
	if SphereRadius(3, 0) != 0 || CubeRadius(3, -1) != 0 {
		t.Fatal("non-positive volumes should give radius 0")
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{{5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {10, 3, 120}, {5, 6, 0}, {5, -1, 0}}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %f, want %f", c.n, c.k, got, c.want)
		}
	}
}

func TestElementarySymmetric(t *testing.T) {
	e := ElementarySymmetric([]float64{1, 2, 3})
	want := []float64{1, 6, 11, 6}
	for i := range want {
		if math.Abs(e[i]-want[i]) > 1e-12 {
			t.Fatalf("e[%d] = %f, want %f", i, e[i], want[i])
		}
	}
}

// Property: for a cube of side a, the exact Minkowski sum equals the
// closed form Σ_k C(d,k) a^k V_{d−k}(r) (the paper's Eq. 12, which is
// exact when all sides are equal).
func TestMinkowskiCubeAgreement(t *testing.T) {
	f := func(sideSeed, rSeed uint8, dSeed uint8) bool {
		d := 1 + int(dSeed)%10
		side := 0.1 + float64(sideSeed)/64
		r := float64(rSeed) / 128
		sides := make([]float64, d)
		for i := range sides {
			sides[i] = side
		}
		exact := MinkowskiBoxSphereEucl(sides, r)
		cube := 0.0
		for k := 0; k <= d; k++ {
			cube += Binomial(d, k) * math.Pow(side, float64(k)) * SphereVolume(d-k, r)
		}
		return math.Abs(exact-cube) <= 1e-9*math.Max(exact, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the Minkowski sum volume is at least the box volume and at
// least the sphere volume, and grows monotonically with r.
func TestMinkowskiBounds(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		d := 1 + r.Intn(8)
		sides := make([]float64, d)
		box := 1.0
		for i := range sides {
			sides[i] = 0.05 + r.Float64()
			box *= sides[i]
		}
		rad := r.Float64()
		eucl := MinkowskiBoxSphereEucl(sides, rad)
		if eucl < box-1e-12 || eucl < SphereVolume(d, rad)-1e-12 {
			t.Fatalf("Minkowski eucl %f below box %f or sphere %f", eucl, box, SphereVolume(d, rad))
		}
		if bigger := MinkowskiBoxSphereEucl(sides, rad*1.5+0.01); bigger <= eucl {
			t.Fatalf("Minkowski sum not monotone in r")
		}
		maxm := MinkowskiBoxSphereMax(sides, rad)
		if maxm < box-1e-12 || maxm < CubeVolume(d, rad)-1e-12 {
			t.Fatalf("Minkowski max %f below box or cube", maxm)
		}
		// L∞ ball contains the L2 ball, so its Minkowski sum is larger.
		if maxm < eucl-1e-9 {
			t.Fatalf("max-metric Minkowski %f smaller than euclidean %f", maxm, eucl)
		}
	}
}

func TestMinkowskiZeroRadiusIsBoxVolume(t *testing.T) {
	sides := []float64{1, 2, 3}
	if got := MinkowskiBoxSphereEucl(sides, 0); math.Abs(got-6) > 1e-12 {
		t.Fatalf("eucl r=0: %f", got)
	}
	if got := MinkowskiBoxSphereMax(sides, 0); math.Abs(got-6) > 1e-12 {
		t.Fatalf("max r=0: %f", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp wrong")
	}
}
