package quantize

import (
	"fmt"

	"repro/internal/vec"
)

// BitWriter packs unsigned integers of arbitrary width (≤ 32 bits) into a
// byte slice, LSB-first within each byte. It is the codec for quantized
// data pages.
type BitWriter struct {
	buf  []byte
	nbit int // total bits written
}

// NewBitWriter returns a writer with capacity hint of n bits.
func NewBitWriter(nbits int) *BitWriter {
	return &BitWriter{buf: make([]byte, 0, (nbits+7)/8)}
}

// Write appends the low `width` bits of v to the stream.
func (w *BitWriter) Write(v uint32, width int) {
	if width < 0 || width > 32 {
		panic(fmt.Sprintf("quantize: bit width %d out of range", width))
	}
	x := uint64(v) & (1<<uint(width) - 1)
	end := w.nbit + width
	// buf holds exactly ⌈nbit/8⌉ bytes: fill the partial last byte, then
	// append whole bytes.
	if off := uint(w.nbit % 8); off != 0 {
		w.buf[len(w.buf)-1] |= byte(x << off)
		x >>= 8 - off
	}
	for n := (end+7)/8 - len(w.buf); n > 0; n-- {
		w.buf = append(w.buf, byte(x))
		x >>= 8
	}
	w.nbit = end
}

// Bytes returns the packed stream. The final partial byte is zero-padded.
func (w *BitWriter) Bytes() []byte { return w.buf }

// Bits returns the number of bits written.
func (w *BitWriter) Bits() int { return w.nbit }

// BitReader unpacks a stream produced by BitWriter.
type BitReader struct {
	buf  []byte
	nbit int
}

// NewBitReader returns a reader over buf.
func NewBitReader(buf []byte) *BitReader {
	return &BitReader{buf: buf}
}

// Read extracts the next `width` bits as an unsigned integer.
func (r *BitReader) Read(width int) uint32 {
	if width < 0 || width > 32 {
		panic(fmt.Sprintf("quantize: bit width %d out of range", width))
	}
	if width == 0 {
		return 0
	}
	byteIdx := r.nbit / 8
	shift := uint(r.nbit % 8)
	// Fast path: load a 64-bit window (shift + width ≤ 40 < 64 always).
	if byteIdx+8 <= len(r.buf) {
		w := uint64(r.buf[byteIdx]) | uint64(r.buf[byteIdx+1])<<8 |
			uint64(r.buf[byteIdx+2])<<16 | uint64(r.buf[byteIdx+3])<<24 |
			uint64(r.buf[byteIdx+4])<<32 | uint64(r.buf[byteIdx+5])<<40 |
			uint64(r.buf[byteIdx+6])<<48 | uint64(r.buf[byteIdx+7])<<56
		r.nbit += width
		mask := uint32(1)<<uint(width) - 1 // width = 32 wraps to all-ones
		return uint32(w>>shift) & mask
	}
	// Slow path near the end of the buffer.
	var v uint32
	for i := 0; i < width; i++ {
		bi := r.nbit / 8
		if bi >= len(r.buf) {
			panic("quantize: bit stream exhausted")
		}
		if r.buf[bi]&(1<<uint(r.nbit%8)) != 0 {
			v |= 1 << uint(i)
		}
		r.nbit++
	}
	return v
}

// Seek positions the reader at an absolute bit offset.
func (r *BitReader) Seek(bitOff int) {
	if bitOff < 0 || bitOff > len(r.buf)*8 {
		panic("quantize: seek out of range")
	}
	r.nbit = bitOff
}

// PackedSize returns the number of bytes needed to pack n points of
// dimensionality d at `bits` bits per dimension.
func PackedSize(n, d, bits int) int {
	total := n * d * bits
	return (total + 7) / 8
}

// Pack encodes points into a bit-packed approximation stream using grid g.
func Pack(g Grid, pts []vec.Point) []byte {
	buf := make([]byte, PackedSize(len(pts), g.Dim(), g.Bits))
	PackInto(buf, g, pts)
	return buf
}

// PackInto writes the stream Pack returns into the first
// PackedSize(len(pts), d, g.Bits) bytes of dst and returns that length.
// It allocates nothing for d ≤ 32, so a caller can encode many pages
// into one reused buffer.
func PackInto(dst []byte, g Grid, pts []vec.Point) int {
	n := PackedSize(len(pts), g.Dim(), g.Bits)
	if len(dst) < n {
		panic(fmt.Sprintf("quantize: %d-byte buffer for a %d-byte stream", len(dst), n))
	}
	var stack [32]uint32
	cells := stack[:0]
	w := BitWriter{buf: dst[:0:n]}
	for _, p := range pts {
		cells = g.Encode(p, cells)
		for _, c := range cells {
			w.Write(c, g.Bits)
		}
	}
	return n
}

// Unpack decodes n points' cell indices from a stream produced by Pack.
// The result is a flat slice of n·d cell indices (point-major).
func Unpack(g Grid, data []byte, n int) []uint32 {
	r := NewBitReader(data)
	d := g.Dim()
	out := make([]uint32, n*d)
	for i := range out {
		out[i] = r.Read(g.Bits)
	}
	return out
}
