// Package core implements the paper's primary contribution: shortcut inner
// nodes that express slot→leaf indirections directly in the page table of
// the OS instead of materializing pointers (paper §1.1, §2.1).
//
// A Traditional node is the baseline: an array of k pointers, one per slot,
// each referencing a page-sized leaf. Resolving slot i costs three
// indirections — translate the inner node, follow the pointer, translate
// the leaf.
//
// A Shortcut node reserves a consecutive virtual memory area of k pages —
// one virtual page per slot — and rewires each virtual page onto the
// physical page of the corresponding leaf. Resolving slot i is then a
// single, hardware-accelerated page-table translation.
package core

import (
	"errors"
	"fmt"

	"vmshortcut/internal/pool"
	"vmshortcut/internal/sys"
)

// Traditional is a pointer-based radix inner node: slot i holds the virtual
// address of leaf i inside the pool window (or 0 for an empty slot).
type Traditional struct {
	slots []uintptr
	pool  *pool.Pool
}

// NewTraditional allocates a traditional inner node with k empty slots.
// The slot array itself lives on the ordinary Go heap — the paper likewise
// allocates it with malloc/new since no shortcut ever targets inner nodes.
func NewTraditional(p *pool.Pool, k int) *Traditional {
	return &Traditional{slots: make([]uintptr, k), pool: p}
}

// Slots returns the fan-out k of the node.
func (t *Traditional) Slots() int { return len(t.slots) }

// Set points slot i at the pooled leaf page ref.
func (t *Traditional) Set(i int, ref pool.Ref) {
	t.slots[i] = t.pool.Addr(ref)
}

// Clear empties slot i.
func (t *Traditional) Clear(i int) { t.slots[i] = 0 }

// Leaf resolves slot i to the leaf page, or nil for an empty slot. This is
// the three-indirection traversal the paper measures.
func (t *Traditional) Leaf(i int) []byte {
	addr := t.slots[i]
	if addr == 0 {
		return nil
	}
	return sys.Bytes(addr, sys.PageSize())
}

// LeafAddr resolves slot i to the leaf's window address (0 if empty).
func (t *Traditional) LeafAddr(i int) uintptr { return t.slots[i] }

// Ref returns the pool page ref stored in slot i, or pool.NoRef.
func (t *Traditional) Ref(i int) pool.Ref {
	if t.slots[i] == 0 {
		return pool.NoRef
	}
	r, err := t.pool.RefOf(t.slots[i])
	if err != nil {
		return pool.NoRef
	}
	return r
}

// Shortcut is a page-table-expressed inner node: a reserved virtual area of
// k pages whose i-th page is rewired onto the physical page of leaf i.
type Shortcut struct {
	base     uintptr
	k        int
	pool     *pool.Pool
	mapped   []bool // which slots have been rewired onto pool pages
	closed   bool
	borrowed bool // the caller owns the virtual area (ShortcutAt)

	// Remaps counts mmap calls issued for this node (for the cost analyses
	// of paper §3.1).
	Remaps int
}

// ErrClosed is returned by operations on a released shortcut node.
var ErrClosed = errors.New("core: shortcut node closed")

// NewShortcut reserves the virtual memory area for a k-slot shortcut node.
// This is phase (1) of Table 1 — a mere reservation backed by anonymous
// memory, so it is essentially free and commits no physical pages.
func NewShortcut(p *pool.Pool, k int) (*Shortcut, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: shortcut needs k > 0, got %d", k)
	}
	base, err := sys.ReserveAnon(k * sys.PageSize())
	if err != nil {
		return nil, fmt.Errorf("core: reserving %d-slot shortcut: %w", k, err)
	}
	return &Shortcut{base: base, k: k, pool: p, mapped: make([]bool, k)}, nil
}

// ShortcutAt builds a k-slot shortcut node in a virtual area of at least k
// pages that the caller has already reserved at base. The caller keeps the
// area: Close marks the node closed and unmaps nothing.
func ShortcutAt(p *pool.Pool, base uintptr, k int) *Shortcut {
	return &Shortcut{base: base, k: k, pool: p, mapped: make([]bool, k), borrowed: true}
}

// Slots returns the fan-out k of the node.
func (s *Shortcut) Slots() int { return s.k }

// Base returns the start address of the node's virtual area.
func (s *Shortcut) Base() uintptr { return s.base }

// Set rewires slot i onto the pooled leaf page ref: one mmap with
// MAP_SHARED|MAP_FIXED replacing the slot's current mapping. With populate
// the new page-table entry is inserted eagerly; otherwise the next access
// takes a soft fault (paper §2.1 "Details").
func (s *Shortcut) Set(i int, ref pool.Ref, populate bool) error {
	if s.closed {
		return ErrClosed
	}
	if i < 0 || i >= s.k {
		return fmt.Errorf("core: slot %d out of range [0,%d)", i, s.k)
	}
	ps := sys.PageSize()
	addr := s.base + uintptr(i*ps)
	if err := sys.MapShared(addr, ps, s.pool.FD(), int64(ref), populate); err != nil {
		return err
	}
	s.mapped[i] = true
	s.Remaps++
	return nil
}

// SetFromTraditional replicates every occupied indirection of t into the
// shortcut, coalescing neighbouring slots that reference neighbouring
// physical pages into single mmap calls (paper §2.1, last paragraph).
// Slots of t that are empty are left anonymous. Returns the number of mmap
// calls issued.
func (s *Shortcut) SetFromTraditional(t *Traditional, populate bool) (int, error) {
	if s.closed {
		return 0, ErrClosed
	}
	if t.Slots() != s.k {
		return 0, fmt.Errorf("core: slot mismatch: traditional %d vs shortcut %d", t.Slots(), s.k)
	}
	refs := make([]pool.Ref, s.k)
	for i := 0; i < s.k; i++ {
		refs[i] = t.Ref(i)
	}
	return s.SetAll(refs, populate)
}

// SetAll rewires slot i onto refs[i] for every i with refs[i] != NoRef,
// coalescing runs of neighbouring slots that map to consecutive file
// offsets into a single mmap call. Returns the number of mmap calls.
func (s *Shortcut) SetAll(refs []pool.Ref, populate bool) (int, error) {
	if s.closed {
		return 0, ErrClosed
	}
	if len(refs) != s.k {
		return 0, fmt.Errorf("core: SetAll got %d refs for %d slots", len(refs), s.k)
	}
	ps := sys.PageSize()
	calls := 0
	i := 0
	for i < s.k {
		if refs[i] == pool.NoRef {
			i++
			continue
		}
		// Extend the run while slot i+n maps to file offset refs[i]+n.
		n := 1
		for i+n < s.k && refs[i+n] != pool.NoRef &&
			int64(refs[i+n]) == int64(refs[i])+int64(n*ps) {
			n++
		}
		addr := s.base + uintptr(i*ps)
		if err := sys.MapShared(addr, n*ps, s.pool.FD(), int64(refs[i]), populate); err != nil {
			return calls, err
		}
		for j := i; j < i+n; j++ {
			s.mapped[j] = true
		}
		calls++
		i += n
	}
	s.Remaps += calls
	return calls, nil
}

// ClearSlot detaches slot i back to anonymous memory (e.g. after its leaf
// was freed), so the slot no longer aliases a pool page.
func (s *Shortcut) ClearSlot(i int) error {
	if s.closed {
		return ErrClosed
	}
	if i < 0 || i >= s.k {
		return fmt.Errorf("core: slot %d out of range [0,%d)", i, s.k)
	}
	ps := sys.PageSize()
	if err := sys.MapAnonFixed(s.base+uintptr(i*ps), ps); err != nil {
		return err
	}
	s.mapped[i] = false
	return nil
}

// Mapped reports whether slot i has been rewired onto a pool page.
func (s *Shortcut) Mapped(i int) bool { return s.mapped[i] }

// Populate eagerly installs page-table entries for all rewired slots by
// touching one byte per page — phase (3) of Table 1 for nodes whose slots
// were set without MAP_POPULATE.
func (s *Shortcut) Populate() error {
	if s.closed {
		return ErrClosed
	}
	ps := sys.PageSize()
	i := 0
	for i < s.k {
		if !s.mapped[i] {
			i++
			continue
		}
		n := 1
		for i+n < s.k && s.mapped[i+n] {
			n++
		}
		if err := sys.Populate(s.base+uintptr(i*ps), n*ps); err != nil {
			return err
		}
		i += n
	}
	return nil
}

// Leaf resolves slot i to its leaf page with a single implicit indirection:
// the returned slice points straight into the rewired virtual page.
func (s *Shortcut) Leaf(i int) []byte {
	if !s.mapped[i] {
		return nil
	}
	ps := sys.PageSize()
	return sys.Bytes(s.base+uintptr(i*ps), ps)
}

// LeafAddr resolves slot i to the shortcut's virtual page address without
// bounds bookkeeping — the hot path used by index lookups.
func (s *Shortcut) LeafAddr(i int) uintptr {
	return s.base + uintptr(i*sys.PageSize())
}

// Close releases the node's virtual area, unless the node was built with
// ShortcutAt. The leaf pages themselves belong to the pool and are
// untouched.
func (s *Shortcut) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.borrowed {
		return nil
	}
	return sys.Unmap(s.base, s.k*sys.PageSize())
}
