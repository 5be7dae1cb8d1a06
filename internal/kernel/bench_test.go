package kernel

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/quantize"
	"repro/internal/vec"
)

// benchPage builds one synthetic quantized page: a grid, its packed
// payload, and the query, mirroring a level-2 IQ-tree page.
func benchPage(bits, n, dim int) (quantize.Grid, []byte, vec.Point, [][]uint32) {
	rng := rand.New(rand.NewSource(11))
	pts, _ := randPts(rng, n, dim)
	g := quantize.NewGrid(vec.MBROf(pts), bits)
	payload := quantize.Pack(g, pts)
	q := pts[0].Clone()
	cells := make([][]uint32, n)
	for i, p := range pts {
		cells[i] = g.Encode(p, nil)
	}
	return g, payload, q, cells
}

// filterPairs is the number of interleaved naive/kernel samples
// BenchmarkQuantizedFilter takes; odd, so the median is one pair's.
const filterPairs = 21

// BenchmarkQuantizedFilter compares the naive filter inner loop
// (BitReader decode + Grid.MinDist/MaxDist per point — the pre-kernel
// code path, kept here as the reference for the ci.sh speedup gate)
// against the kernel path (bulk unpack + table lookups). It times b.N
// pages of each in filterPairs interleaved pairs, alternating which
// runs first, and reports the kernel's ns/op and the median of the
// per-pair naive/kernel ratios, so host drift lands on both sides of a
// pair instead of on one side's samples.
func BenchmarkQuantizedFilter(b *testing.B) {
	const n, dim, bits = 256, 16, 8
	g, payload, q, _ := benchPage(bits, n, dim)
	met := vec.Euclidean
	cells := make([]uint32, dim)
	var a Arena
	var sink float64
	naive := func() time.Duration {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			r := quantize.NewBitReader(payload)
			for p := 0; p < n; p++ {
				for j := 0; j < dim; j++ {
					cells[j] = r.Read(bits)
				}
				sink += g.MinDist(q, cells, met)
				sink += g.MaxDist(q, cells, met)
			}
		}
		return time.Since(start)
	}
	kernel := func() time.Duration {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			codes := a.Unpack(payload, n*dim, bits)
			tb := a.Tables(g, q, met, n)
			for p := 0; p < n; p++ {
				lb, ub := tb.Bounds(codes[p*dim : (p+1)*dim])
				sink += lb + ub
			}
		}
		return time.Since(start)
	}
	ratios := make([]float64, filterPairs)
	var total time.Duration
	b.ResetTimer()
	for p := range ratios {
		var tn, tk time.Duration
		if p%2 == 0 {
			tn, tk = naive(), kernel()
		} else {
			tk, tn = kernel(), naive()
		}
		ratios[p] = float64(tn) / float64(tk)
		total += tk
	}
	sort.Float64s(ratios)
	b.ReportMetric(float64(total.Nanoseconds())/float64(filterPairs*b.N), "ns/op")
	b.ReportMetric(ratios[filterPairs/2], "naive/kernel")
	_ = sink
}

// BenchmarkKernelMinDist measures the per-point lower-bound cost alone,
// naive vs table lookup.
func BenchmarkKernelMinDist(b *testing.B) {
	const n, dim, bits = 256, 16, 8
	g, _, q, cells := benchPage(bits, n, dim)
	met := vec.Euclidean

	b.Run("naive", func(b *testing.B) {
		b.ReportAllocs()
		var sink float64
		for i := 0; i < b.N; i++ {
			sink += g.MinDist(q, cells[i%n], met)
		}
		_ = sink
	})

	b.Run("kernel", func(b *testing.B) {
		b.ReportAllocs()
		var a Arena
		tb := a.Tables(g, q, met, n)
		var sink float64
		for i := 0; i < b.N; i++ {
			lb, _ := tb.MinDistPruned(cells[i%n], math.Inf(1))
			sink += lb
		}
		_ = sink
	})
}

// BenchmarkBulkUnpack measures code decoding, BitReader vs the bulk
// unpackers, across the page bit widths.
func BenchmarkBulkUnpack(b *testing.B) {
	const n, dim = 256, 16
	for _, bits := range []int{1, 2, 4, 8} {
		g, payload, _, _ := benchPage(bits, n, dim)
		_ = g
		b.Run("naive/g="+strconv.Itoa(bits), func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]uint32, n*dim)
			for i := 0; i < b.N; i++ {
				r := quantize.NewBitReader(payload)
				for j := range dst {
					dst[j] = r.Read(bits)
				}
			}
		})
		b.Run("kernel/g="+strconv.Itoa(bits), func(b *testing.B) {
			b.ReportAllocs()
			dst := make([]uint32, n*dim)
			for i := 0; i < b.N; i++ {
				Unpack(dst, payload, n*dim, bits)
			}
		})
	}
}
