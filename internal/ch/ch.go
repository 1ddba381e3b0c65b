// Package ch implements the paper's Chained Hashing (CH) baseline (§4.2):
// a fixed-size hash table whose slots either contain an entry inline or
// link to a chain of fixed-size buckets. When a bucket overflows, a new
// bucket is created, linked, and the entry inserted there. Buckets are
// searched linearly. CH never rehashes, which gives it the best insertion
// profile in Figure 7a — at the price of a fixed directory footprint
// (1 GB in the paper) and slower lookups once chains form.
package ch

import (
	"vmshortcut/internal/hashfn"
)

// BucketEntries is the number of entries per 128-byte chain bucket:
// 8 words of keys minus one word for the next pointer, paired with values
// packed alongside → 7 (key,value) pairs plus the link ≈ 128 bytes.
const BucketEntries = 7

// chainBucket is a fixed-size 128-byte overflow bucket.
type chainBucket struct {
	keys [BucketEntries]uint64
	vals [BucketEntries]uint64
	used uint8
	next *chainBucket
}

// slot is one directory slot: an inline entry plus an optional chain.
type slot struct {
	key   uint64
	val   uint64
	used  bool
	chain *chainBucket
}

// Config tunes a Table. The zero value selects scaled-down defaults.
type Config struct {
	// TableBytes fixes the directory size. The paper uses 1 GB; the
	// default here is 16 MB so examples and tests stay laptop-friendly —
	// the benchmark harness scales it with the workload.
	TableBytes int
}

const slotBytes = 32 // approximate in-memory size of a slot

func (c *Config) fill() {
	if c.TableBytes <= 0 {
		c.TableBytes = 16 << 20
	}
}

// Table is a chained hash table. Not safe for concurrent use.
type Table struct {
	slots []slot
	mask  uint64
	count int

	// ChainedBuckets counts allocated overflow buckets.
	ChainedBuckets int
}

// New creates a table with a fixed slot array of roughly cfg.TableBytes.
func New(cfg Config) *Table {
	cfg.fill()
	n := 1
	for n*slotBytes < cfg.TableBytes {
		n <<= 1
	}
	return &Table{slots: make([]slot, n), mask: uint64(n - 1)}
}

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.count }

// Slots returns the directory capacity.
func (t *Table) Slots() int { return len(t.slots) }

// Insert upserts (key, value). Keys hash to a slot; overflow goes to the
// slot's bucket chain.
func (t *Table) Insert(key, value uint64) error {
	s := &t.slots[hashfn.Hash(key)&t.mask]
	if s.used && s.key == key {
		s.val = value
		return nil
	}
	if !s.used {
		s.used = true
		s.key = key
		s.val = value
		t.count++
		return nil
	}
	// Search the chain for an existing entry or a free cell.
	var freeB *chainBucket
	freeI := -1
	for b := s.chain; b != nil; b = b.next {
		for i := 0; i < int(b.used); i++ {
			if b.keys[i] == key {
				b.vals[i] = value
				return nil
			}
		}
		if int(b.used) < BucketEntries && freeB == nil {
			freeB = b
			freeI = int(b.used)
		}
	}
	if freeB == nil {
		freeB = &chainBucket{next: s.chain}
		s.chain = freeB
		freeI = 0
		t.ChainedBuckets++
	}
	freeB.keys[freeI] = key
	freeB.vals[freeI] = value
	if freeI == int(freeB.used) {
		freeB.used++
	}
	t.count++
	return nil
}

// Lookup returns the value stored for key.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	s := &t.slots[hashfn.Hash(key)&t.mask]
	if s.used && s.key == key {
		return s.val, true
	}
	for b := s.chain; b != nil; b = b.next {
		for i := 0; i < int(b.used); i++ {
			if b.keys[i] == key {
				return b.vals[i], true
			}
		}
	}
	return 0, false
}

// Range calls fn for every stored entry until fn returns false. Iteration
// order is unspecified. fn must not mutate the table.
func (t *Table) Range(fn func(key, value uint64) bool) {
	for i := range t.slots {
		s := &t.slots[i]
		if s.used && !fn(s.key, s.val) {
			return
		}
		for b := s.chain; b != nil; b = b.next {
			for j := 0; j < int(b.used); j++ {
				if !fn(b.keys[j], b.vals[j]) {
					return
				}
			}
		}
	}
}

// Delete removes key and reports whether it was present. Chain cells are
// back-filled from the bucket tail so chains stay dense.
func (t *Table) Delete(key uint64) bool {
	s := &t.slots[hashfn.Hash(key)&t.mask]
	if s.used && s.key == key {
		// Promote a chain entry into the inline slot if one exists.
		if b := s.chain; b != nil {
			last := int(b.used) - 1
			s.key = b.keys[last]
			s.val = b.vals[last]
			b.used--
			if b.used == 0 {
				s.chain = b.next
			}
		} else {
			s.used = false
			s.key, s.val = 0, 0
		}
		t.count--
		return true
	}
	for b := s.chain; b != nil; b = b.next {
		for i := 0; i < int(b.used); i++ {
			if b.keys[i] != key {
				continue
			}
			last := int(b.used) - 1
			b.keys[i] = b.keys[last]
			b.vals[i] = b.vals[last]
			b.keys[last], b.vals[last] = 0, 0
			b.used--
			if b.used == 0 && b == s.chain {
				s.chain = b.next
			}
			t.count--
			return true
		}
	}
	return false
}
