// Package bucket implements the page-sized hash bucket that extendible
// hashing indexes (paper §4: fixed-size leaves of 4 KB, open addressing /
// linear probing within each bucket).
//
// A bucket is a raw view over exactly one memory page, so it can live in
// pool pages and be aliased by shortcut slots. The layout (in 8-byte
// words) is:
//
//	word 0: local depth
//	word 1: entry count (including the zero key)
//	word 2: zero-key-present flag
//	word 3: zero-key value
//	words 4..511: 254 open-addressed (key, value) pairs
//
// A key word of 0 marks an empty probe slot; the real key 0 is stored in
// the header instead, the classic open-addressing trick. Since the header
// lives inside the page, a bucket split needs no side lookups and aliased
// views through shortcuts always see a consistent local depth.
package bucket

import (
	"vmshortcut/internal/hashfn"
	"vmshortcut/internal/sys"
)

const (
	wordsPerPage = 512 // 4096 / 8
	headerWords  = 4
	// ProbeSlots is the number of open-addressed (key,value) pairs.
	ProbeSlots = (wordsPerPage - headerWords) / 2 // 254
	// Capacity is the maximum number of entries, including key 0.
	Capacity = ProbeSlots + 1 // 255
)

// Bucket is a view over one page. It holds no state of its own; copying it
// is free and all methods operate on the underlying page.
type Bucket struct {
	w []uint64
}

// ViewAddr wraps the mapped page at addr as a bucket — the hot path used
// by index lookups, where addr comes from a pool window or shortcut slot.
func ViewAddr(addr uintptr) Bucket {
	return Bucket{w: sys.Words(addr, wordsPerPage)}
}

// Reset zeroes the bucket and sets its local depth.
func (b Bucket) Reset(localDepth uint) {
	for i := range b.w {
		b.w[i] = 0
	}
	b.w[0] = uint64(localDepth)
}

// LocalDepth returns the bucket's local depth.
func (b Bucket) LocalDepth() uint { return uint(b.w[0]) }

// SetLocalDepth updates the bucket's local depth.
func (b Bucket) SetLocalDepth(d uint) { b.w[0] = uint64(d) }

// Count returns the number of stored entries.
func (b Bucket) Count() int { return int(b.w[1]) }

// Full reports whether no further entry fits.
func (b Bucket) Full() bool { return b.Count() >= Capacity }

// Insert upserts (key, value). It returns ok=false when the bucket is full
// and the key is not already present — the caller must then split.
func (b Bucket) Insert(key, value uint64) bool {
	if key == 0 {
		if b.w[2] == 0 {
			if b.Count() >= Capacity {
				return false
			}
			b.w[2] = 1
			b.w[1]++
		}
		b.w[3] = value
		return true
	}
	i := int(hashfn.Hash2(key) % ProbeSlots)
	for probes := 0; probes < ProbeSlots; probes++ {
		k := b.w[headerWords+2*i]
		if k == key {
			b.w[headerWords+2*i+1] = value
			return true
		}
		if k == 0 {
			if b.Count() >= Capacity {
				return false
			}
			b.w[headerWords+2*i] = key
			b.w[headerWords+2*i+1] = value
			b.w[1]++
			return true
		}
		i++
		if i == ProbeSlots {
			i = 0
		}
	}
	return false
}

// Lookup returns the value stored for key.
func (b Bucket) Lookup(key uint64) (uint64, bool) {
	if key == 0 {
		if b.w[2] == 0 {
			return 0, false
		}
		return b.w[3], true
	}
	i := int(hashfn.Hash2(key) % ProbeSlots)
	for probes := 0; probes < ProbeSlots; probes++ {
		k := b.w[headerWords+2*i]
		if k == key {
			return b.w[headerWords+2*i+1], true
		}
		if k == 0 {
			return 0, false
		}
		i++
		if i == ProbeSlots {
			i = 0
		}
	}
	return 0, false
}

// Delete removes key, compacting the probe sequence with backward-shift
// deletion so no tombstones accumulate. It reports whether the key was
// present.
func (b Bucket) Delete(key uint64) bool {
	if key == 0 {
		if b.w[2] == 0 {
			return false
		}
		b.w[2], b.w[3] = 0, 0
		b.w[1]--
		return true
	}
	i := int(hashfn.Hash2(key) % ProbeSlots)
	found := -1
	for probes := 0; probes < ProbeSlots; probes++ {
		k := b.w[headerWords+2*i]
		if k == key {
			found = i
			break
		}
		if k == 0 {
			return false
		}
		i++
		if i == ProbeSlots {
			i = 0
		}
	}
	if found < 0 {
		return false
	}
	// Backward-shift: walk the cluster after the hole; pull back any entry
	// whose ideal slot lies cyclically outside (hole, current].
	hole := found
	j := found
	for {
		j++
		if j == ProbeSlots {
			j = 0
		}
		k := b.w[headerWords+2*j]
		if k == 0 {
			break
		}
		ideal := int(hashfn.Hash2(k) % ProbeSlots)
		inHoleToJ := false
		if hole <= j {
			inHoleToJ = ideal > hole && ideal <= j
		} else {
			inHoleToJ = ideal > hole || ideal <= j
		}
		if !inHoleToJ {
			b.w[headerWords+2*hole] = k
			b.w[headerWords+2*hole+1] = b.w[headerWords+2*j+1]
			hole = j
		}
	}
	b.w[headerWords+2*hole] = 0
	b.w[headerWords+2*hole+1] = 0
	b.w[1]--
	return true
}

// ForEach calls fn for every stored entry until fn returns false.
func (b Bucket) ForEach(fn func(key, value uint64) bool) {
	if b.w[2] != 0 {
		if !fn(0, b.w[3]) {
			return
		}
	}
	for i := 0; i < ProbeSlots; i++ {
		k := b.w[headerWords+2*i]
		if k != 0 {
			if !fn(k, b.w[headerWords+2*i+1]) {
				return
			}
		}
	}
}

// SplitInto rehashes every entry of b into dst0 or dst1 according to hash
// bit number ld (the bucket's current local depth, counted from the MSB):
// entries whose bit is 0 go to dst0, others to dst1. Both destinations
// must be empty buckets; their local depth is set to ld+1, and b is left
// untouched. It returns the destination counts.
func (b Bucket) SplitInto(dst0, dst1 Bucket) (n0, n1 int) {
	ld := b.LocalDepth()
	dst0.Reset(ld + 1)
	dst1.Reset(ld + 1)
	b.ForEach(func(k, v uint64) bool {
		if hashfn.SplitBit(hashfn.Hash(k), ld) == 0 {
			dst0.Insert(k, v)
		} else {
			dst1.Insert(k, v)
		}
		return true
	})
	return dst0.Count(), dst1.Count()
}
