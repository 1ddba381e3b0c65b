package eh

// Snapshots — the other application family of memory rewiring the paper
// cites ([7] RUMA, [9] AnyOLAP): because all bucket state lives in pool
// pages and the directory is just refs into the pool file, an extendible
// hash table serializes to a compact, self-contained stream and restores
// into any pool. The stream stores each distinct bucket page once,
// followed by the directory as indexes into that page list.

import (
	"encoding/binary"
	"fmt"
	"io"

	"vmshortcut/internal/pool"
	"vmshortcut/internal/sys"
)

// snapshotMagic identifies and versions the snapshot format.
const snapshotMagic = uint64(0x5643_5348_4F54_0001) // "VCSHOT" v1

// WriteSnapshot serializes the table. The format is:
//
//	magic, pageSize, globalDepth, count, distinctPages
//	distinctPages × (page bytes)
//	2^globalDepth × (uint32 page index)
func (t *Table) WriteSnapshot(w io.Writer) error {
	ps := sys.PageSize()
	// Collect distinct pages in first-reference order.
	pageIndex := map[pool.Ref]uint32{}
	var order []pool.Ref
	for _, r := range t.refs {
		if _, ok := pageIndex[r]; !ok {
			pageIndex[r] = uint32(len(order))
			order = append(order, r)
		}
	}
	hdr := []uint64{snapshotMagic, uint64(ps), uint64(t.gd), uint64(t.count), uint64(len(order))}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("eh: snapshot header: %w", err)
		}
	}
	for _, r := range order {
		if _, err := w.Write(t.pool.Page(r)); err != nil {
			return fmt.Errorf("eh: snapshot page: %w", err)
		}
	}
	idx := make([]uint32, len(t.refs))
	for i, r := range t.refs {
		idx[i] = pageIndex[r]
	}
	if err := binary.Write(w, binary.LittleEndian, idx); err != nil {
		return fmt.Errorf("eh: snapshot directory: %w", err)
	}
	return nil
}

// Restore reads a snapshot produced by WriteSnapshot into a fresh table
// whose buckets are allocated from p. The restored table is fully
// independent of the snapshot source.
func Restore(p *pool.Pool, cfg Config, r io.Reader) (*Table, error) {
	cfg.fill()
	var hdr [5]uint64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("eh: restore header: %w", err)
	}
	if hdr[0] != snapshotMagic {
		return nil, fmt.Errorf("eh: restore: bad magic %#x", hdr[0])
	}
	ps := sys.PageSize()
	if hdr[1] != uint64(ps) {
		return nil, fmt.Errorf("eh: restore: snapshot page size %d != host %d", hdr[1], ps)
	}
	gd := uint(hdr[2])
	if gd > cfg.MaxGlobalDepth {
		return nil, fmt.Errorf("eh: restore: snapshot depth %d exceeds MaxGlobalDepth %d",
			gd, cfg.MaxGlobalDepth)
	}
	distinct := int(hdr[4])

	pages, err := p.AllocN(distinct)
	if err != nil {
		return nil, fmt.Errorf("eh: restore: allocating %d pages: %w", distinct, err)
	}
	for _, ref := range pages {
		if _, err := io.ReadFull(r, p.Page(ref)); err != nil {
			return nil, fmt.Errorf("eh: restore: reading page: %w", err)
		}
	}
	idx := make([]uint32, 1<<gd)
	if err := binary.Read(r, binary.LittleEndian, idx); err != nil {
		return nil, fmt.Errorf("eh: restore: directory: %w", err)
	}

	t := &Table{
		pool:  p,
		cfg:   cfg,
		gd:    gd,
		count: int(hdr[3]),
		dir:   make([]uintptr, 1<<gd),
		refs:  make([]pool.Ref, 1<<gd),
	}
	seen := map[uint32]bool{}
	for i, pi := range idx {
		if int(pi) >= distinct {
			return nil, fmt.Errorf("eh: restore: slot %d references page %d of %d", i, pi, distinct)
		}
		t.dir[i] = p.Addr(pages[pi])
		t.refs[i] = pages[pi]
		if !seen[pi] {
			seen[pi] = true
			t.buckets++
		}
	}
	return t, nil
}
