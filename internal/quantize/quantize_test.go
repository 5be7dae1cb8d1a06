package quantize

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
)

func randMBR(r *rand.Rand, d int) vec.MBR {
	lo := make(vec.Point, d)
	hi := make(vec.Point, d)
	for i := 0; i < d; i++ {
		a := float32(r.NormFloat64())
		b := a + float32(r.Float64()) + 0.01
		lo[i], hi[i] = a, b
	}
	return vec.MBR{Lo: lo, Hi: hi}
}

func randPointIn(r *rand.Rand, m vec.MBR) vec.Point {
	p := make(vec.Point, m.Dim())
	for i := range p {
		p[i] = m.Lo[i] + float32(r.Float64())*(m.Hi[i]-m.Lo[i])
	}
	return p
}

// Property: a point always lies inside the box of its own cell, for every
// quantization level.
func TestEncodeCellBoxContainment(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.Intn(10)
		m := randMBR(r, d)
		for _, bits := range Levels {
			g := NewGrid(m, bits)
			p := randPointIn(r, m)
			cells := g.Encode(p, nil)
			box := g.CellBox(cells)
			for i := 0; i < d; i++ {
				// Allow one float32 ulp of slack at the cell edges.
				if float64(p[i]) < float64(box.Lo[i])-1e-5 || float64(p[i]) > float64(box.Hi[i])+1e-5 {
					t.Fatalf("bits=%d dim %d: point %v outside cell box [%v, %v]",
						bits, i, p[i], box.Lo[i], box.Hi[i])
				}
			}
		}
	}
}

// Property: cell-based lower/upper distance bounds bracket the true
// distance for every metric and level.
func TestMinMaxDistBracketTrueDistance(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		d := 1 + r.Intn(8)
		m := randMBR(r, d)
		bits := Levels[r.Intn(len(Levels))]
		g := NewGrid(m, bits)
		p := randPointIn(r, m)
		q := randPointIn(r, m)
		cells := g.Encode(p, nil)
		for _, met := range []vec.Metric{vec.Euclidean, vec.Maximum} {
			lb := g.MinDist(q, cells, met)
			ub := g.MaxDist(q, cells, met)
			truth := met.Dist(q, p)
			if truth < lb-1e-4 || truth > ub+1e-4 {
				t.Fatalf("bits=%d %v: dist %f outside [%f, %f]", bits, met, truth, lb, ub)
			}
		}
	}
}

func TestExactGridRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := randMBR(r, 5)
	g := NewGrid(m, ExactBits)
	if !g.Exact() {
		t.Fatal("32-bit grid should be exact")
	}
	p := randPointIn(r, m)
	cells := g.Encode(p, nil)
	box := g.CellBox(cells)
	for i := range p {
		if box.Lo[i] != p[i] || box.Hi[i] != p[i] {
			t.Fatalf("exact cell box not degenerate at the point: %v vs %v", box, p)
		}
	}
	if d := g.MinDist(p, cells, vec.Euclidean); d != 0 {
		t.Fatalf("exact MinDist from the point itself = %f", d)
	}
}

func TestEncodeClampsOutOfRangePoints(t *testing.T) {
	m := vec.MBR{Lo: vec.Point{0}, Hi: vec.Point{1}}
	g := NewGrid(m, 4)
	below := g.Encode(vec.Point{-5}, nil)
	above := g.Encode(vec.Point{7}, nil)
	if below[0] != 0 {
		t.Fatalf("below-range cell %d, want 0", below[0])
	}
	if above[0] != 15 {
		t.Fatalf("above-range cell %d, want 15", above[0])
	}
}

func TestDegenerateDimension(t *testing.T) {
	m := vec.MBR{Lo: vec.Point{1, 0}, Hi: vec.Point{1, 1}} // dim 0 is flat
	g := NewGrid(m, 4)
	cells := g.Encode(vec.Point{1, 0.5}, nil)
	if cells[0] != 0 {
		t.Fatalf("degenerate dim cell %d", cells[0])
	}
	lo, hi := g.CellBounds(0, 0)
	if lo != 1 || hi != 1 {
		t.Fatalf("degenerate cell bounds [%f, %f]", lo, hi)
	}
}

func TestNewGridPanicsOnBadBits(t *testing.T) {
	m := vec.MBR{Lo: vec.Point{0}, Hi: vec.Point{1}}
	for _, bad := range []int{0, -1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewGrid(bits=%d) did not panic", bad)
				}
			}()
			NewGrid(m, bad)
		}()
	}
}

func TestGridCells(t *testing.T) {
	m := vec.MBR{Lo: vec.Point{0}, Hi: vec.Point{1}}
	if NewGrid(m, 4).Cells() != 16 {
		t.Fatal("4-bit grid should have 16 cells")
	}
	if NewGrid(m, 1).Cells() != 2 {
		t.Fatal("1-bit grid should have 2 cells")
	}
}

// Property: BitWriter/BitReader roundtrip arbitrary values at arbitrary
// widths.
func TestBitRoundtripQuick(t *testing.T) {
	f := func(vals []uint32, widthSeed uint8) bool {
		width := 1 + int(widthSeed)%32
		mask := uint32(1)<<uint(width) - 1
		w := NewBitWriter(len(vals) * width)
		for _, v := range vals {
			w.Write(v&mask, width)
		}
		r := NewBitReader(w.Bytes())
		for _, v := range vals {
			if r.Read(width) != v&mask {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitMixedWidths(t *testing.T) {
	w := NewBitWriter(0)
	w.Write(1, 1)
	w.Write(5, 3)
	w.Write(200, 8)
	w.Write(0xdeadbeef, 32)
	w.Write(3, 2)
	if w.Bits() != 46 {
		t.Fatalf("bits written %d", w.Bits())
	}
	r := NewBitReader(w.Bytes())
	for _, c := range []struct {
		width int
		want  uint32
	}{{1, 1}, {3, 5}, {8, 200}, {32, 0xdeadbeef}, {2, 3}} {
		if got := r.Read(c.width); got != c.want {
			t.Fatalf("read %d-bit value %d, want %d", c.width, got, c.want)
		}
	}
}

// bitwiseWriter is the bit-at-a-time reference for BitWriter: one bit
// per loop iteration, ignoring the bits of v above width.
type bitwiseWriter struct {
	buf  []byte
	nbit int
}

func (w *bitwiseWriter) Write(v uint32, width int) {
	for i := 0; i < width; i++ {
		byteIdx := w.nbit / 8
		if byteIdx == len(w.buf) {
			w.buf = append(w.buf, 0)
		}
		if v&(1<<uint(i)) != 0 {
			w.buf[byteIdx] |= 1 << uint(w.nbit%8)
		}
		w.nbit++
	}
}

func TestBitWriterMatchesBitwiseReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		r := rand.New(rand.NewSource(seed))
		w, ref := NewBitWriter(0), &bitwiseWriter{}
		for i := 0; i < 10_000; i++ {
			// Full 32-bit values: every width below 32 sees bits above it.
			v, width := r.Uint32(), r.Intn(33)
			w.Write(v, width)
			ref.Write(v, width)
		}
		if w.Bits() != ref.nbit || !bytes.Equal(w.Bytes(), ref.buf) {
			t.Fatalf("seed %d: %d bits, %d bytes; bitwise reference %d bits, %d bytes, first difference at byte %d",
				seed, w.Bits(), len(w.Bytes()), ref.nbit, len(ref.buf), firstDiff(w.Bytes(), ref.buf))
		}
	}
	for _, width := range []int{-1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("width %d did not panic", width)
				}
			}()
			NewBitWriter(0).Write(1, width)
		}()
	}
	// Pack is the writer's production caller: its streams must not change
	// at any quantization level.
	rr := rand.New(rand.NewSource(6))
	m := randMBR(rr, 7)
	pts := make([]vec.Point, 101)
	for i := range pts {
		pts[i] = randPointIn(rr, m)
	}
	for _, bits := range Levels {
		g := NewGrid(m, bits)
		ref := &bitwiseWriter{}
		cells := make([]uint32, g.Dim())
		for _, p := range pts {
			cells = g.Encode(p, cells)
			for _, c := range cells {
				ref.Write(c, g.Bits)
			}
		}
		if got := Pack(g, pts); !bytes.Equal(got, ref.buf) {
			t.Fatalf("bits=%d: Pack differs from the bitwise reference at byte %d", bits, firstDiff(got, ref.buf))
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

func TestBitReaderSeek(t *testing.T) {
	w := NewBitWriter(0)
	for i := uint32(0); i < 16; i++ {
		w.Write(i, 4)
	}
	r := NewBitReader(w.Bytes())
	r.Seek(4 * 7)
	if got := r.Read(4); got != 7 {
		t.Fatalf("after seek read %d, want 7", got)
	}
}

func TestPackUnpack(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	m := randMBR(r, 6)
	for _, bits := range []int{1, 2, 4, 8, 16} {
		g := NewGrid(m, bits)
		pts := make([]vec.Point, 33)
		for i := range pts {
			pts[i] = randPointIn(r, m)
		}
		data := Pack(g, pts)
		if len(data) != PackedSize(len(pts), 6, bits) {
			t.Fatalf("bits=%d packed size %d, want %d", bits, len(data), PackedSize(len(pts), 6, bits))
		}
		cells := Unpack(g, data, len(pts))
		for i, p := range pts {
			want := g.Encode(p, nil)
			for j := 0; j < 6; j++ {
				if cells[i*6+j] != want[j] {
					t.Fatalf("bits=%d point %d dim %d: %d != %d", bits, i, j, cells[i*6+j], want[j])
				}
			}
		}
	}
}

func TestLevelsLadder(t *testing.T) {
	want := []int{1, 2, 4, 8, 16, 32}
	if len(Levels) != len(want) {
		t.Fatal("levels ladder changed")
	}
	for i := range want {
		if Levels[i] != want[i] {
			t.Fatalf("Levels[%d] = %d", i, Levels[i])
		}
	}
	// The number of full solutions of a depth-5 split tree must match the
	// paper's 458,330 (Section 3.5): f(h) = 1 + f(h-1)².
	f := 1.0
	for i := 0; i < len(Levels)-1; i++ {
		f = 1 + f*f
	}
	if math.Abs(f-458330) > 0.5 {
		t.Fatalf("split-tree solution count %f, want 458330", f)
	}
}
