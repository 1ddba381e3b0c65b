// Package radix implements a second shortcut application beyond extendible
// hashing: a sparse direct-mapped index (radix "map") over a bounded
// uint64 key space, the simplest instance of the paper's target class —
// index structures that (a) use page-size nodes and (b) perform a
// radix-style traversal (paper §1.1).
//
// The structure is one wide inner node whose slot i covers the key range
// [i*EntriesPerLeaf, (i+1)*EntriesPerLeaf), each occupied slot referencing
// a 4 KB leaf page holding the values and a presence bitmap. Leaves are
// allocated lazily on first write and freed when their last entry is
// removed.
//
// Unlike Shortcut-EH, the shortcut here is maintained synchronously: the
// inner node changes only when a leaf is allocated or freed — once per
// EntriesPerLeaf keys at worst — so the remap cost amortizes to nothing
// and no mapper thread is needed. This showcases the other end of the
// paper's design space (§3.1: hide creation cost *or* make it rare).
package radix

import (
	"errors"
	"fmt"

	"vmshortcut/internal/core"
	"vmshortcut/internal/pool"
	"vmshortcut/internal/sys"
)

// Leaf layout (4096 bytes, in 8-byte words):
//
//	words   0..479: values
//	words 480..487: presence bitmap (480 bits used)
//	word  488:      count of present entries
//	words 489..511: reserved
const (
	// EntriesPerLeaf is the number of keys covered by one leaf page.
	EntriesPerLeaf = 480
	bitmapWord     = 480
	countWord      = 488
)

// Config tunes a Map.
type Config struct {
	// Capacity is the exclusive upper bound of the key space. Required.
	Capacity uint64
	// DisableShortcut routes all reads through the pointer array
	// (baseline mode for benchmarks).
	DisableShortcut bool
}

// Map is a sparse direct-mapped uint64→uint64 index. Not safe for
// concurrent mutation; reads may run concurrently with each other.
type Map struct {
	pool  *pool.Pool
	trad  *core.Traditional
	sc    *core.Shortcut
	refs  []pool.Ref
	cfg   Config
	slots int
	count int

	// LeafAllocs and LeafFrees count inner-node modifications — the
	// (rare) events that require a remap.
	LeafAllocs int
	LeafFrees  int
}

// ErrKeyRange is returned for keys at or above the configured capacity.
var ErrKeyRange = errors.New("radix: key out of range")

// New creates a map covering keys [0, cfg.Capacity).
func New(p *pool.Pool, cfg Config) (*Map, error) {
	if cfg.Capacity == 0 {
		return nil, fmt.Errorf("radix: Capacity must be positive")
	}
	slots := int((cfg.Capacity + EntriesPerLeaf - 1) / EntriesPerLeaf)
	m := &Map{
		pool:  p,
		trad:  core.NewTraditional(p, slots),
		refs:  make([]pool.Ref, slots),
		cfg:   cfg,
		slots: slots,
	}
	for i := range m.refs {
		m.refs[i] = pool.NoRef
	}
	if !cfg.DisableShortcut {
		sc, err := core.NewShortcut(p, slots)
		if err != nil {
			return nil, err
		}
		m.sc = sc
	}
	return m, nil
}

// Len returns the number of stored entries.
func (m *Map) Len() int { return m.count }

// Slots returns the inner node's fan-out.
func (m *Map) Slots() int { return m.slots }

// leafWords returns the word view of the leaf for slot, or nil.
func (m *Map) leafWords(slot int) []uint64 {
	if m.refs[slot] == pool.NoRef {
		return nil
	}
	return sys.Words(m.pool.Addr(m.refs[slot]), 512)
}

// Set stores (key, value), allocating the covering leaf if needed.
func (m *Map) Set(key, value uint64) error {
	if key >= m.cfg.Capacity {
		return fmt.Errorf("%w: %d >= %d", ErrKeyRange, key, m.cfg.Capacity)
	}
	slot := int(key / EntriesPerLeaf)
	w := m.leafWords(slot)
	if w == nil {
		ref, err := m.pool.Alloc()
		if err != nil {
			return err
		}
		m.refs[slot] = ref
		m.trad.Set(slot, ref)
		if m.sc != nil {
			// Synchronous shortcut maintenance with eager population:
			// leaf allocation is rare, so the remap cost amortizes.
			if err := m.sc.Set(slot, ref, true); err != nil {
				return err
			}
		}
		m.LeafAllocs++
		w = m.leafWords(slot)
	}
	idx := int(key % EntriesPerLeaf)
	bit := uint64(1) << (idx & 63)
	if w[bitmapWord+idx/64]&bit == 0 {
		w[bitmapWord+idx/64] |= bit
		w[countWord]++
		m.count++
	}
	w[idx] = value
	return nil
}

// Insert stores (key, value) — Set under the name the Index interface
// expects.
func (m *Map) Insert(key, value uint64) error { return m.Set(key, value) }

// Lookup returns the value stored for key — Get under the name the Index
// interface expects.
func (m *Map) Lookup(key uint64) (uint64, bool) { return m.Get(key) }

// Get returns the value stored for key, routed through the shortcut when
// available — a single implicit indirection.
func (m *Map) Get(key uint64) (uint64, bool) {
	if key >= m.cfg.Capacity {
		return 0, false
	}
	slot := int(key / EntriesPerLeaf)
	idx := int(key % EntriesPerLeaf)
	if m.sc != nil && m.sc.Mapped(slot) {
		w := sys.Words(m.sc.LeafAddr(slot), 512)
		if w[bitmapWord+idx/64]&(1<<(idx&63)) == 0 {
			return 0, false
		}
		return w[idx], true
	}
	w := m.leafWords(slot)
	if w == nil || w[bitmapWord+idx/64]&(1<<(idx&63)) == 0 {
		return 0, false
	}
	return w[idx], true
}

// GetTraditional forces the pointer path (benchmark baseline).
func (m *Map) GetTraditional(key uint64) (uint64, bool) {
	if key >= m.cfg.Capacity {
		return 0, false
	}
	slot := int(key / EntriesPerLeaf)
	idx := int(key % EntriesPerLeaf)
	addr := m.trad.LeafAddr(slot)
	if addr == 0 {
		return 0, false
	}
	w := sys.Words(addr, 512)
	if w[bitmapWord+idx/64]&(1<<(idx&63)) == 0 {
		return 0, false
	}
	return w[idx], true
}

// Delete removes key, freeing the leaf when it empties.
func (m *Map) Delete(key uint64) bool {
	if key >= m.cfg.Capacity {
		return false
	}
	slot := int(key / EntriesPerLeaf)
	idx := int(key % EntriesPerLeaf)
	w := m.leafWords(slot)
	bit := uint64(1) << (idx & 63)
	if w == nil || w[bitmapWord+idx/64]&bit == 0 {
		return false
	}
	w[bitmapWord+idx/64] &^= bit
	w[idx] = 0
	w[countWord]--
	m.count--
	if w[countWord] == 0 {
		// Last entry gone: detach the slot, return the page.
		if m.sc != nil {
			if err := m.sc.ClearSlot(slot); err != nil {
				return true // entry is gone; the leaf just stays allocated
			}
		}
		m.trad.Clear(slot)
		m.pool.Free(m.refs[slot])
		m.refs[slot] = pool.NoRef
		m.LeafFrees++
	}
	return true
}

// Range calls fn for every present (key, value) in ascending key order
// until fn returns false.
func (m *Map) Range(fn func(key, value uint64) bool) {
	for slot := 0; slot < m.slots; slot++ {
		w := m.leafWords(slot)
		if w == nil {
			continue
		}
		base := uint64(slot) * EntriesPerLeaf
		for idx := 0; idx < EntriesPerLeaf; idx++ {
			if w[bitmapWord+idx/64]&(1<<(idx&63)) != 0 {
				if !fn(base+uint64(idx), w[idx]) {
					return
				}
			}
		}
	}
}

// Close releases the shortcut's virtual area and frees all leaves.
func (m *Map) Close() error {
	var firstErr error
	if m.sc != nil {
		if err := m.sc.Close(); err != nil {
			firstErr = err
		}
		m.sc = nil
	}
	for i, r := range m.refs {
		if r != pool.NoRef {
			if err := m.pool.Free(r); err != nil && firstErr == nil {
				firstErr = err
			}
			m.refs[i] = pool.NoRef
		}
	}
	return firstErr
}
