// Package ht implements the paper's Hash Table (HT) baseline (§4.2): a
// single open-addressing / linear-probing hash table with n slots. If the
// load factor exceeds the configured threshold, a table of size 2n is
// allocated and ALL entries are rehashed over in one go — producing the
// staircase-shaped insertion profile of Figure 7a.
package ht

import (
	"vmshortcut/internal/hashfn"
)

// slotBytes is the size of one (key, value) slot.
const slotBytes = 16

// DefaultInitialBytes gives the table the paper's starting footprint of a
// single 4 KB page (256 slots).
const DefaultInitialBytes = 4096

// Config tunes a Table. The zero value selects the paper's parameters.
type Config struct {
	// MaxLoadFactor triggers the doubling rehash. Default 0.35.
	MaxLoadFactor float64
	// InitialBytes sizes the first table. Default 4096 (one page).
	InitialBytes int
}

func (c *Config) fill() {
	if c.MaxLoadFactor <= 0 || c.MaxLoadFactor >= 1 {
		c.MaxLoadFactor = 0.35
	}
	if c.InitialBytes < slotBytes*2 {
		c.InitialBytes = DefaultInitialBytes
	}
}

// Table is an open-addressing hash table mapping uint64 keys to uint64
// values. Not safe for concurrent use.
type Table struct {
	keys    []uint64
	vals    []uint64
	mask    uint64
	count   int
	zeroSet bool
	zeroVal uint64
	maxFill int
	cfg     Config

	// Rehashes counts full-table rehashes (each one is a Figure 7a step).
	Rehashes int
	// MovedEntries counts entries moved by rehashing.
	MovedEntries int
}

// New creates an empty table.
func New(cfg Config) *Table {
	cfg.fill()
	n := nextPow2(cfg.InitialBytes / slotBytes)
	t := &Table{cfg: cfg}
	t.grow(n)
	return t
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.count }

// Slots returns the current table capacity in slots.
func (t *Table) Slots() int { return len(t.keys) }

// grow allocates a table of n slots and rehashes everything into it.
func (t *Table) grow(n int) {
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, n)
	t.vals = make([]uint64, n)
	t.mask = uint64(n - 1)
	t.maxFill = int(t.cfg.MaxLoadFactor * float64(n))
	if t.maxFill < 1 {
		t.maxFill = 1
	}
	if oldKeys != nil {
		t.Rehashes++
		for i, k := range oldKeys {
			if k != 0 {
				t.place(k, oldVals[i])
				t.MovedEntries++
			}
		}
	}
}

// place inserts a key known to be absent, without occupancy checks.
func (t *Table) place(key, value uint64) {
	i := hashfn.Hash(key) & t.mask
	for t.keys[i] != 0 {
		i = (i + 1) & t.mask
	}
	t.keys[i] = key
	t.vals[i] = value
}

// Insert upserts (key, value), doubling the table when the load factor
// threshold is exceeded.
func (t *Table) Insert(key, value uint64) error {
	if key == 0 {
		if !t.zeroSet {
			t.zeroSet = true
			t.count++
		}
		t.zeroVal = value
		return nil
	}
	i := hashfn.Hash(key) & t.mask
	for t.keys[i] != 0 {
		if t.keys[i] == key {
			t.vals[i] = value
			return nil
		}
		i = (i + 1) & t.mask
	}
	if t.count+1 > t.maxFill {
		t.grow(len(t.keys) * 2)
		t.place(key, value)
	} else {
		t.keys[i] = key
		t.vals[i] = value
	}
	t.count++
	return nil
}

// Range calls fn for every stored entry until fn returns false. Iteration
// order is unspecified. fn must not mutate the table.
func (t *Table) Range(fn func(key, value uint64) bool) {
	if t.zeroSet && !fn(0, t.zeroVal) {
		return
	}
	for i, k := range t.keys {
		if k != 0 && !fn(k, t.vals[i]) {
			return
		}
	}
}

// Lookup returns the value stored for key.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	if key == 0 {
		return t.zeroVal, t.zeroSet
	}
	i := hashfn.Hash(key) & t.mask
	for {
		k := t.keys[i]
		if k == key {
			return t.vals[i], true
		}
		if k == 0 {
			return 0, false
		}
		i = (i + 1) & t.mask
	}
}

// Delete removes key with backward-shift compaction and reports whether it
// was present.
func (t *Table) Delete(key uint64) bool {
	if key == 0 {
		if !t.zeroSet {
			return false
		}
		t.zeroSet = false
		t.zeroVal = 0
		t.count--
		return true
	}
	i := hashfn.Hash(key) & t.mask
	for {
		k := t.keys[i]
		if k == 0 {
			return false
		}
		if k == key {
			break
		}
		i = (i + 1) & t.mask
	}
	hole := i
	j := i
	for {
		j = (j + 1) & t.mask
		k := t.keys[j]
		if k == 0 {
			break
		}
		ideal := hashfn.Hash(k) & t.mask
		var inHoleToJ bool
		if hole <= j {
			inHoleToJ = ideal > hole && ideal <= j
		} else {
			inHoleToJ = ideal > hole || ideal <= j
		}
		if !inHoleToJ {
			t.keys[hole] = k
			t.vals[hole] = t.vals[j]
			hole = j
		}
	}
	t.keys[hole] = 0
	t.vals[hole] = 0
	t.count--
	return true
}
