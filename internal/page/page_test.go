package page

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/quantize"
	"repro/internal/vec"
)

func randPoints(r *rand.Rand, n, d int) []vec.Point {
	pts := make([]vec.Point, n)
	for i := range pts {
		p := make(vec.Point, d)
		for j := range p {
			p[j] = float32(r.NormFloat64())
		}
		pts[i] = p
	}
	return pts
}

func TestDirEntryRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		d := 1 + r.Intn(20)
		e := DirEntry{
			Count:   r.Uint32(),
			Bits:    uint8(r.Intn(33)),
			QPos:    r.Uint32(),
			EPos:    r.Uint32(),
			EBlocks: r.Uint32(),
			Base:    r.Uint32(),
			MBR:     vec.MBROf(randPoints(r, 3, d)),
		}
		buf := make([]byte, DirEntrySize(d))
		e.Marshal(buf, d)
		got := UnmarshalDirEntry(buf, d)
		if got.Count != e.Count || got.Bits != e.Bits || got.QPos != e.QPos ||
			got.EPos != e.EPos || got.EBlocks != e.EBlocks || got.Base != e.Base {
			t.Fatalf("header mismatch: %+v vs %+v", got, e)
		}
		if !got.MBR.Lo.Equal(e.MBR.Lo) || !got.MBR.Hi.Equal(e.MBR.Hi) {
			t.Fatal("MBR mismatch")
		}
	}
}

func TestDirEntryBufferTooSmallPanics(t *testing.T) {
	e := DirEntry{MBR: vec.MBR{Lo: vec.Point{0}, Hi: vec.Point{1}}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Marshal(make([]byte, 4), 1)
}

func TestQPageCapacity(t *testing.T) {
	// 4088-byte payload, d=16: 2044 points at 1 bit, 60 exact points.
	if got := QPageCapacity(4088, 16, 1); got != 2044 {
		t.Fatalf("cap(1) = %d", got)
	}
	if got := QPageCapacity(4088, 16, 32); got != 60 {
		t.Fatalf("cap(32) = %d", got)
	}
	if got := QPageCapacity(4088, 16, 8); got != 255 {
		t.Fatalf("cap(8) = %d", got)
	}
}

func TestQPageRoundtripCompressed(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, bits := range []int{1, 2, 4, 8, 16} {
		d := 1 + r.Intn(12)
		pts := randPoints(r, 50, d)
		grid := quantize.NewGrid(vec.MBROf(pts), bits)
		pageBytes := QHeaderSize + QPageCapacity(1<<14, d, bits) // roomy
		_ = pageBytes
		buf := MarshalQPage(grid, pts, nil, 1<<14)
		qp := UnmarshalQPage(buf)
		if qp.Count != 50 || qp.Bits != bits {
			t.Fatalf("header: %+v", qp)
		}
		cells := qp.Cells(grid)
		for i, p := range pts {
			want := grid.Encode(p, nil)
			for j := 0; j < d; j++ {
				if cells[i*d+j] != want[j] {
					t.Fatalf("bits=%d cell mismatch at point %d dim %d", bits, i, j)
				}
			}
		}
	}
}

func TestQPageRoundtripExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := 7
	pts := randPoints(r, 20, d)
	ids := make([]uint32, 20)
	for i := range ids {
		ids[i] = uint32(1000 + i)
	}
	grid := quantize.NewGrid(vec.MBROf(pts), quantize.ExactBits)
	buf := MarshalQPage(grid, pts, ids, 4096)
	qp := UnmarshalQPage(buf)
	gotPts, gotIDs := qp.ExactPoints(d)
	for i := range pts {
		if !gotPts[i].Equal(pts[i]) || gotIDs[i] != ids[i] {
			t.Fatalf("exact roundtrip mismatch at %d", i)
		}
	}
}

// TestEncodeOverwritesReusedBuffer encodes pages into buffers that hold
// other bytes, as a reused chunk buffer does: the result must equal a
// fresh encoding, zeros after the payload included, at every level and
// for a page that does not fill its buffer.
func TestEncodeOverwritesReusedBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const d, pageBytes = 16, 4096
	for _, bits := range quantize.Levels {
		n := QPageCapacity(pageBytes-QHeaderSize, d, bits) / 3
		pts := randPoints(r, n, d)
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = r.Uint32()
		}
		grid := quantize.NewGrid(vec.MBROf(pts), bits)
		qids := ids
		if !grid.Exact() {
			qids = nil
		}
		dirty := func(n int) []byte {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = 0xa5
			}
			return buf
		}
		qbuf := dirty(pageBytes)
		EncodeQPage(qbuf, grid, pts, qids)
		if want := MarshalQPage(grid, pts, qids, pageBytes); !bytes.Equal(qbuf, want) {
			t.Errorf("%d-bit page encoded into a used buffer differs from a fresh one", bits)
		}
		want := MarshalExact(pts, ids)
		ebuf := dirty(len(want) + 100)
		EncodeExact(ebuf, pts, ids)
		if !bytes.Equal(ebuf[:len(want)], want) || !bytes.Equal(ebuf[len(want):], make([]byte, 100)) {
			t.Errorf("%d-bit exact page encoded into a used buffer differs from a fresh one", bits)
		}
	}
}

func TestQPageOverflowPanics(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts := randPoints(r, 100, 16)
	grid := quantize.NewGrid(vec.MBROf(pts), quantize.ExactBits)
	defer func() {
		if recover() == nil {
			t.Fatal("expected capacity panic")
		}
	}()
	MarshalQPage(grid, pts, make([]uint32, 100), 512) // far too small
}

func TestExactPointsOnCompressedPagePanics(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts := randPoints(r, 5, 4)
	grid := quantize.NewGrid(vec.MBROf(pts), 4)
	qp := UnmarshalQPage(MarshalQPage(grid, pts, nil, 4096))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	qp.ExactPoints(4)
}

// Property: exact entries roundtrip coordinates and ids for arbitrary
// float32 values (including NaN-free specials).
func TestExactEntryRoundtripQuick(t *testing.T) {
	f := func(xs []float32, id uint32) bool {
		if len(xs) == 0 {
			return true
		}
		p := vec.Point(xs)
		buf := MarshalExact([]vec.Point{p}, []uint32{id})
		if len(buf) != ExactEntrySize(len(xs)) {
			return false
		}
		got, gotID := UnmarshalExactEntry(buf, len(xs))
		if gotID != id {
			return false
		}
		for i := range xs {
			// Compare bit patterns so NaNs roundtrip too.
			if got[i] != xs[i] && !(got[i] != got[i] && xs[i] != xs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalExactValidations(t *testing.T) {
	if MarshalExact(nil, nil) != nil {
		t.Fatal("empty exact page should be nil")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected mismatch panic")
		}
	}()
	MarshalExact([]vec.Point{{1}}, []uint32{1, 2})
}
