// Package hti implements the paper's Hash Table Incremental (HTI) baseline
// (§4.2), modelled after the dictionary of the Redis key-value store: it
// resembles HT in all aspects except that a resize does not rehash
// everything in one go. Instead, the old and the new table coexist, and
// every subsequent access migrates a batch of b entries until the old
// table is drained. While both tables coexist, lookups may have to inspect
// both, starting with the one containing more entries.
package hti

import (
	"vmshortcut/internal/hashfn"
)

const slotBytes = 16

// Config tunes a Table. The zero value selects the paper's parameters.
type Config struct {
	// MaxLoadFactor triggers an incremental resize. Default 0.35.
	MaxLoadFactor float64
	// InitialBytes sizes the first table. Default 4096 (one page).
	InitialBytes int
	// MigrationBatch is the number of entries moved per access while a
	// resize is in progress. Default 64.
	MigrationBatch int
}

func (c *Config) fill() {
	if c.MaxLoadFactor <= 0 || c.MaxLoadFactor >= 1 {
		c.MaxLoadFactor = 0.35
	}
	if c.InitialBytes < slotBytes*2 {
		c.InitialBytes = 4096
	}
	if c.MigrationBatch <= 0 {
		c.MigrationBatch = 64
	}
}

// subtable is one open-addressing table.
type subtable struct {
	keys    []uint64
	vals    []uint64
	mask    uint64
	count   int
	zeroSet bool
	zeroVal uint64
}

func newSubtable(slots int) *subtable {
	return &subtable{
		keys: make([]uint64, slots),
		vals: make([]uint64, slots),
		mask: uint64(slots - 1),
	}
}

func (s *subtable) totalCount() int { return s.count }

func (s *subtable) insert(key, value uint64) bool {
	if key == 0 {
		grew := !s.zeroSet
		s.zeroSet = true
		s.zeroVal = value
		if grew {
			s.count++
		}
		return grew
	}
	i := hashfn.Hash(key) & s.mask
	for s.keys[i] != 0 {
		if s.keys[i] == key {
			s.vals[i] = value
			return false
		}
		i = (i + 1) & s.mask
	}
	s.keys[i] = key
	s.vals[i] = value
	s.count++
	return true
}

func (s *subtable) lookup(key uint64) (uint64, bool) {
	if key == 0 {
		return s.zeroVal, s.zeroSet
	}
	i := hashfn.Hash(key) & s.mask
	for {
		k := s.keys[i]
		if k == key {
			return s.vals[i], true
		}
		if k == 0 {
			return 0, false
		}
		i = (i + 1) & s.mask
	}
}

func (s *subtable) delete(key uint64) bool {
	if key == 0 {
		if !s.zeroSet {
			return false
		}
		s.zeroSet = false
		s.zeroVal = 0
		s.count--
		return true
	}
	i := hashfn.Hash(key) & s.mask
	for {
		k := s.keys[i]
		if k == 0 {
			return false
		}
		if k == key {
			break
		}
		i = (i + 1) & s.mask
	}
	hole := i
	j := i
	for {
		j = (j + 1) & s.mask
		k := s.keys[j]
		if k == 0 {
			break
		}
		ideal := hashfn.Hash(k) & s.mask
		var inHoleToJ bool
		if hole <= j {
			inHoleToJ = ideal > hole && ideal <= j
		} else {
			inHoleToJ = ideal > hole || ideal <= j
		}
		if !inHoleToJ {
			s.keys[hole] = k
			s.vals[hole] = s.vals[j]
			hole = j
		}
	}
	s.keys[hole] = 0
	s.vals[hole] = 0
	s.count--
	return true
}

// Table is an incrementally rehashing hash table. Not safe for concurrent
// use.
type Table struct {
	active    *subtable // the table new entries go to
	migrating *subtable // the table being drained (nil when not resizing)
	cursor    int       // migration scan position in migrating.keys
	cfg       Config
	maxFill   int

	// Resizes counts started incremental resizes.
	Resizes int
	// MovedEntries counts entries migrated between tables.
	MovedEntries int
}

// New creates an empty table.
func New(cfg Config) *Table {
	cfg.fill()
	slots := nextPow2(cfg.InitialBytes / slotBytes)
	t := &Table{cfg: cfg, active: newSubtable(slots)}
	t.maxFill = maxFill(cfg.MaxLoadFactor, slots)
	return t
}

func maxFill(lf float64, slots int) int {
	f := int(lf * float64(slots))
	if f < 1 {
		f = 1
	}
	return f
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Len returns the number of stored entries across both tables.
func (t *Table) Len() int {
	n := t.active.totalCount()
	if t.migrating != nil {
		n += t.migrating.totalCount()
	}
	return n
}

// Migrating reports whether an incremental resize is in progress.
func (t *Table) Migrating() bool { return t.migrating != nil }

// step migrates up to MigrationBatch entries from the old table. Called on
// every access while a resize is in progress ("subsequent accesses then
// also move b entries until everything is migrated").
func (t *Table) step() {
	if t.migrating == nil {
		return
	}
	moved := 0
	m := t.migrating
	if m.zeroSet {
		t.active.insert(0, m.zeroVal)
		m.zeroSet = false
		m.count--
		moved++
		t.MovedEntries++
	}
	for moved < t.cfg.MigrationBatch && t.cursor < len(m.keys) {
		k := m.keys[t.cursor]
		if k == 0 {
			t.cursor++
			continue
		}
		v := m.vals[t.cursor]
		// Remove through the backward-shift delete so the old table's
		// probe chains stay intact for the keys not yet migrated —
		// zeroing the slot directly cuts the chain and strands every
		// displaced key probing through it (unreachable to lookups and,
		// worse, to Insert's update-in-place check, which then
		// duplicated the key into the new table). The shift may pull
		// another entry into the cursor slot, so the cursor only
		// advances on empty slots.
		m.delete(k)
		t.active.insert(k, v)
		moved++
		t.MovedEntries++
	}
	if m.count == 0 {
		t.migrating = nil
		t.cursor = 0
	} else if t.cursor >= len(m.keys) {
		// Entries can survive a full scan: deleting from the old table
		// (the update-in-place path of Insert, or Delete) compacts with
		// backward shifting, which may move a not-yet-migrated entry
		// behind the cursor. Rescan until the table is truly empty —
		// nothing is ever inserted into the old table, so every pass
		// makes progress and the resize still terminates.
		t.cursor = 0
	}
}

// startResize begins migrating into a table of twice the combined size.
func (t *Table) startResize() {
	newSlots := len(t.active.keys) * 2
	if t.migrating != nil {
		// Resize requested while still migrating (possible under extreme
		// load factors): finish the old migration first, in one go.
		for t.migrating != nil {
			t.step()
		}
	}
	t.migrating = t.active
	t.active = newSubtable(newSlots)
	t.cursor = 0
	t.maxFill = maxFill(t.cfg.MaxLoadFactor, newSlots)
	t.Resizes++
}

// Insert upserts (key, value), migrating a batch if a resize is running.
func (t *Table) Insert(key, value uint64) error {
	t.step()
	if t.migrating != nil {
		// Update-in-place if the key still lives in the old table.
		if _, ok := t.migrating.lookup(key); ok {
			t.migrating.delete(key)
			t.active.insert(key, value)
			return nil
		}
	}
	grew := t.active.insert(key, value)
	if grew && t.migrating == nil && t.active.count > t.maxFill {
		t.startResize()
	}
	return nil
}

// Lookup returns the value stored for key. While two tables coexist, the
// one containing more entries is inspected first (paper §4.2).
func (t *Table) Lookup(key uint64) (uint64, bool) {
	t.step()
	if t.migrating == nil {
		return t.active.lookup(key)
	}
	first, second := t.active, t.migrating
	if t.migrating.totalCount() > t.active.totalCount() {
		first, second = t.migrating, t.active
	}
	if v, ok := first.lookup(key); ok {
		return v, true
	}
	return second.lookup(key)
}

// Range calls fn for every stored entry until fn returns false. Unlike
// Lookup, Range is a pure read: it does not advance the incremental
// migration, so it can run while a resize is in progress without moving
// entries under the caller. Iteration order is unspecified. fn must not
// mutate the table.
func (t *Table) Range(fn func(key, value uint64) bool) {
	tables := []*subtable{t.active}
	if t.migrating != nil {
		tables = append(tables, t.migrating)
	}
	for _, s := range tables {
		if s.zeroSet && !fn(0, s.zeroVal) {
			return
		}
		for i, k := range s.keys {
			if k != 0 && !fn(k, s.vals[i]) {
				return
			}
		}
	}
}

// Delete removes key from whichever table holds it.
func (t *Table) Delete(key uint64) bool {
	t.step()
	if t.active.delete(key) {
		return true
	}
	if t.migrating != nil {
		return t.migrating.delete(key)
	}
	return false
}
