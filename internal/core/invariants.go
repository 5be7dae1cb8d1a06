package core

import (
	"fmt"

	"repro/internal/kernel"
	"repro/internal/page"
	"repro/internal/quantize"
)

// CheckInvariants validates the full physical structure of the tree
// against its current snapshot. It is used by tests and by cautious
// maintenance code after batches of updates. The checks are:
//
//  1. live page counts sum to Len();
//  2. every page's count fits its quantization level's capacity;
//  3. the serialized directory matches the in-memory entries;
//  4. every quantized page header matches its directory entry;
//  5. every point's exact coordinates lie inside the page MBR, and its
//     quantized cells match re-encoding the exact point;
//  6. compressed pages have a consistent third-level region; exact
//     (32-bit) pages have none;
//  7. no point id appears twice;
//  8. the position index maps every live entry's page position back to
//     that entry (page versions are owned by at most one entry).
//
// It returns the first violation found, or nil.
func (t *Tree) CheckInvariants() error {
	t.world.RLock()
	defer t.world.RUnlock()
	sn := t.load()

	// (3) directory bytes round-trip.
	entrySize := page.DirEntrySize(t.dim)
	if t.dirFile.Bytes() < len(sn.entries)*entrySize {
		return fmt.Errorf("directory file holds %d bytes, need %d", t.dirFile.Bytes(), len(sn.entries)*entrySize)
	}
	var raw []byte
	if t.dirFile.Blocks() > 0 {
		var err error
		if raw, err = t.dirFile.ReadRaw(0, t.dirFile.Blocks()); err != nil {
			return err
		}
	}

	seen := make(map[uint32]bool, sn.n)
	total := 0
	free := t.sto.NewSession()
	for i, e := range sn.entries {
		got := page.UnmarshalDirEntry(raw[i*entrySize:], t.dim)
		if got.Count != e.Count || got.Bits != e.Bits || got.QPos != e.QPos ||
			got.EPos != e.EPos || got.EBlocks != e.EBlocks {
			return fmt.Errorf("entry %d: serialized directory diverges (%+v vs %+v)", i, got, e)
		}
		if sn.free[i] {
			if e.Count != 0 {
				return fmt.Errorf("entry %d: free but count %d", i, e.Count)
			}
			continue
		}
		// (8) position-index consistency: the entry's page version exists
		// and is owned by exactly this entry.
		if int(e.QPos) >= t.qFile.Blocks() {
			return fmt.Errorf("entry %d: QPos %d past the quantized file", i, e.QPos)
		}
		if owner := sn.entryIndex(int(e.QPos)); owner != i {
			return fmt.Errorf("entry %d: position index maps QPos %d to entry %d", i, e.QPos, owner)
		}
		bits := int(e.Bits)
		if bits < 1 || bits > quantize.ExactBits {
			return fmt.Errorf("entry %d: invalid level %d", i, bits)
		}
		// (2) capacity.
		if int(e.Count) > t.pageCapacity(bits) {
			return fmt.Errorf("entry %d: %d points exceed capacity %d at %d bits", i, e.Count, t.pageCapacity(bits), bits)
		}
		total += int(e.Count)

		// (4) page header.
		full, err := t.qFile.ReadRaw(int(e.QPos), 1)
		if err != nil {
			return err
		}
		qp := page.UnmarshalQPage(full)
		if qp.Count != int(e.Count) || qp.Bits != bits {
			return fmt.Errorf("entry %d: page header (%d, %d) vs directory (%d, %d)", i, qp.Count, qp.Bits, e.Count, e.Bits)
		}

		// (6) third level wiring.
		if bits == quantize.ExactBits {
			if e.EBlocks != 0 {
				return fmt.Errorf("entry %d: exact page should have no third level", i)
			}
		} else if e.EBlocks == 0 {
			return fmt.Errorf("entry %d: compressed page lacks a third level", i)
		}

		// (5) + (7) per-point checks via the exact geometry.
		pts, ids, err := t.readPagePoints(free, sn, i)
		if err != nil {
			return err
		}
		if len(pts) != int(e.Count) {
			return fmt.Errorf("entry %d: read %d exact points, want %d", i, len(pts), e.Count)
		}
		grid := sn.grids[i]
		var cells []uint32
		var stored []uint32
		if bits < quantize.ExactBits {
			stored = kernel.Unpack(nil, qp.Payload, qp.Count*t.dim, qp.Bits)
		}
		for j, p := range pts {
			if seen[ids[j]] {
				return fmt.Errorf("duplicate id %d", ids[j])
			}
			seen[ids[j]] = true
			if !e.MBR.Contains(p) {
				return fmt.Errorf("entry %d point %d: outside page MBR", i, j)
			}
			if bits < quantize.ExactBits {
				cells = grid.Encode(p, cells)
				for dd := 0; dd < t.dim; dd++ {
					if stored[j*t.dim+dd] != cells[dd] {
						return fmt.Errorf("entry %d point %d dim %d: stored cell %d, re-encoded %d",
							i, j, dd, stored[j*t.dim+dd], cells[dd])
					}
				}
			}
		}
	}
	// (1) totals.
	if total != sn.n {
		return fmt.Errorf("live page counts sum to %d, Len is %d", total, sn.n)
	}
	// (8b) no stale position claims a live entry.
	for pos, owner := range sn.entryAt {
		if owner < 0 {
			continue
		}
		if int(owner) >= len(sn.entries) {
			return fmt.Errorf("position %d: owner %d out of range", pos, owner)
		}
		if !sn.free[owner] && int(sn.entries[owner].QPos) != pos {
			return fmt.Errorf("position %d: claims live entry %d whose QPos is %d", pos, owner, sn.entries[owner].QPos)
		}
	}
	return nil
}
