// Package page defines the on-disk formats of the three IQ-tree levels
// (paper Fig. 3): first-level directory entries with exact MBRs,
// fixed-size quantized data pages, and variable-size exact data pages.
// All encodings are little-endian via encoding/binary.
//
// Layouts (d = dimensionality):
//
//	directory entry  (24 + 8d bytes):
//	    count u32 | bits u8 | pad[3] | qpos u32 | epos u32 |
//	    eblocks u32 | base u32 | mbr lo[d]f32 hi[d]f32
//	quantized page   (fixed size, QHeaderSize = 8):
//	    count u32 | bits u8 | pad[3] | payload
//	    payload, bits < 32 : bit-packed cell indices (count·d·bits bits)
//	    payload, bits = 32 : count·d f32 coords, then count u32 ids
//	exact entry      (4d + 4 bytes): d f32 coords | id u32
package page

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/quantize"
	"repro/internal/vec"
)

// QHeaderSize is the byte size of the quantized-page header.
const QHeaderSize = 8

// DirEntry is one first-level directory entry: the exact MBR of a
// partition plus the locations of its second- and third-level pages.
type DirEntry struct {
	Count   uint32 // points in the partition
	Bits    uint8  // quantization level g
	QPos    uint32 // index of the quantized page in the second-level file
	EPos    uint32 // starting block of the exact page in the third-level file
	EBlocks uint32 // size of the exact page in blocks (0 for g = 32)
	Base    uint32 // sequence index of the partition's first point
	MBR     vec.MBR
}

// DirEntrySize returns the encoded size of a directory entry in d
// dimensions.
func DirEntrySize(d int) int { return 24 + 8*d }

// Marshal encodes e into buf, which must be at least DirEntrySize(d) long.
func (e *DirEntry) Marshal(buf []byte, d int) {
	if len(buf) < DirEntrySize(d) {
		panic("page: directory entry buffer too small")
	}
	le := binary.LittleEndian
	le.PutUint32(buf[0:], e.Count)
	buf[4] = e.Bits
	buf[5], buf[6], buf[7] = 0, 0, 0
	le.PutUint32(buf[8:], e.QPos)
	le.PutUint32(buf[12:], e.EPos)
	le.PutUint32(buf[16:], e.EBlocks)
	le.PutUint32(buf[20:], e.Base)
	off := 24
	for i := 0; i < d; i++ {
		le.PutUint32(buf[off:], math.Float32bits(e.MBR.Lo[i]))
		off += 4
	}
	for i := 0; i < d; i++ {
		le.PutUint32(buf[off:], math.Float32bits(e.MBR.Hi[i]))
		off += 4
	}
}

// UnmarshalDirEntry decodes a directory entry of dimensionality d.
func UnmarshalDirEntry(buf []byte, d int) DirEntry {
	if len(buf) < DirEntrySize(d) {
		panic("page: directory entry buffer too small")
	}
	le := binary.LittleEndian
	e := DirEntry{
		Count:   le.Uint32(buf[0:]),
		Bits:    buf[4],
		QPos:    le.Uint32(buf[8:]),
		EPos:    le.Uint32(buf[12:]),
		EBlocks: le.Uint32(buf[16:]),
		Base:    le.Uint32(buf[20:]),
		MBR:     vec.MBR{Lo: make(vec.Point, d), Hi: make(vec.Point, d)},
	}
	off := 24
	for i := 0; i < d; i++ {
		e.MBR.Lo[i] = math.Float32frombits(le.Uint32(buf[off:]))
		off += 4
	}
	for i := 0; i < d; i++ {
		e.MBR.Hi[i] = math.Float32frombits(le.Uint32(buf[off:]))
		off += 4
	}
	return e
}

// QPageCapacity returns the maximum number of points a quantized page with
// payloadBytes of payload can hold at the given quantization level. Exact
// (32-bit) pages store coordinates plus point ids and need no third-level
// page; compressed pages store only bit-packed cell indices.
func QPageCapacity(payloadBytes, d, bits int) int {
	if bits >= quantize.ExactBits {
		return payloadBytes / (4*d + 4)
	}
	return payloadBytes * 8 / (d * bits)
}

// MarshalQPage encodes a quantized data page of exactly pageBytes bytes
// (EncodeQPage into a fresh buffer).
func MarshalQPage(grid quantize.Grid, pts []vec.Point, ids []uint32, pageBytes int) []byte {
	buf := make([]byte, pageBytes)
	EncodeQPage(buf, grid, pts, ids)
	return buf
}

// EncodeQPage encodes a quantized data page into buf, which is the whole
// page. For bits < 32 the points are grid-quantized relative to
// grid.MBR; for bits = 32 exact coordinates and ids are stored. ids is
// required only for 32-bit pages. The bytes past the payload are
// zeroed, so buf may hold an earlier page.
func EncodeQPage(buf []byte, grid quantize.Grid, pts []vec.Point, ids []uint32) {
	d := grid.Dim()
	if QPageCapacity(len(buf)-QHeaderSize, d, grid.Bits) < len(pts) {
		panic(fmt.Sprintf("page: %d points exceed quantized page capacity at %d bits", len(pts), grid.Bits))
	}
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(len(pts)))
	buf[4], buf[5], buf[6], buf[7] = uint8(grid.Bits), 0, 0, 0
	end := QHeaderSize
	if grid.Exact() {
		if len(ids) != len(pts) {
			panic("page: exact quantized page requires ids")
		}
		for _, p := range pts {
			for _, v := range p {
				le.PutUint32(buf[end:], math.Float32bits(v))
				end += 4
			}
		}
		for _, id := range ids {
			le.PutUint32(buf[end:], id)
			end += 4
		}
	} else {
		end += quantize.PackInto(buf[QHeaderSize:], grid, pts)
	}
	clear(buf[end:])
}

// QPage is a decoded quantized data page header plus raw payload.
type QPage struct {
	Count   int
	Bits    int
	Payload []byte
}

// UnmarshalQPage decodes the header of a quantized page.
func UnmarshalQPage(buf []byte) QPage {
	le := binary.LittleEndian
	return QPage{
		Count:   int(le.Uint32(buf[0:])),
		Bits:    int(buf[4]),
		Payload: buf[QHeaderSize:],
	}
}

// Cells returns the flat cell-index array (point-major, Count·d entries)
// of a compressed page under grid g.
func (p QPage) Cells(g quantize.Grid) []uint32 {
	return quantize.Unpack(g, p.Payload, p.Count)
}

// ExactPoints decodes the coordinates and ids of a 32-bit page.
func (p QPage) ExactPoints(d int) ([]vec.Point, []uint32) {
	if p.Bits != quantize.ExactBits {
		panic("page: ExactPoints on a compressed page")
	}
	le := binary.LittleEndian
	pts := make([]vec.Point, p.Count)
	off := 0
	for i := range pts {
		pt := make(vec.Point, d)
		for j := 0; j < d; j++ {
			pt[j] = math.Float32frombits(le.Uint32(p.Payload[off:]))
			off += 4
		}
		pts[i] = pt
	}
	ids := make([]uint32, p.Count)
	for i := range ids {
		ids[i] = le.Uint32(p.Payload[off:])
		off += 4
	}
	return pts, ids
}

// ExactEntrySize returns the encoded size of one exact-point entry.
func ExactEntrySize(d int) int { return 4*d + 4 }

// MarshalExact encodes the third-level exact page: one entry per point,
// coordinates followed by the point id (EncodeExact into a fresh buffer
// of exactly that size).
func MarshalExact(pts []vec.Point, ids []uint32) []byte {
	if len(pts) != len(ids) {
		panic("page: points/ids length mismatch")
	}
	if len(pts) == 0 {
		return nil
	}
	buf := make([]byte, len(pts)*ExactEntrySize(len(pts[0])))
	EncodeExact(buf, pts, ids)
	return buf
}

// EncodeExact encodes the exact page of pts and their ids into the start
// of buf and zeroes the rest of it, so buf may hold an earlier page.
func EncodeExact(buf []byte, pts []vec.Point, ids []uint32) {
	if len(pts) != len(ids) {
		panic("page: points/ids length mismatch")
	}
	if len(pts) > 0 && len(buf) < len(pts)*ExactEntrySize(len(pts[0])) {
		panic(fmt.Sprintf("page: %d-byte buffer for %d exact entries", len(buf), len(pts)))
	}
	le := binary.LittleEndian
	off := 0
	for i, p := range pts {
		for _, v := range p {
			le.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
		le.PutUint32(buf[off:], ids[i])
		off += 4
	}
	clear(buf[off:])
}

// UnmarshalExactEntry decodes one exact-point entry of dimensionality d.
func UnmarshalExactEntry(buf []byte, d int) (vec.Point, uint32) {
	le := binary.LittleEndian
	p := make(vec.Point, d)
	off := 0
	for j := 0; j < d; j++ {
		p[j] = math.Float32frombits(le.Uint32(buf[off:]))
		off += 4
	}
	return p, le.Uint32(buf[off:])
}
