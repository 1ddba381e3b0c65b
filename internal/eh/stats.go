package eh

import (
	"vmshortcut/internal/bucket"
	"vmshortcut/internal/sys"
)

// Iteration and introspection helpers for the extendible hash table.

// ForEach calls fn for every stored entry until fn returns false. Entries
// are visited in bucket order (directory order, each bucket once); the
// order is deterministic for a given table state but not sorted.
func (t *Table) ForEach(fn func(key, value uint64) bool) {
	seen := make(map[uintptr]struct{}, t.buckets)
	stop := false
	for _, addr := range t.dir {
		if stop {
			return
		}
		if _, dup := seen[addr]; dup {
			continue
		}
		seen[addr] = struct{}{}
		bucket.ViewAddr(addr).ForEach(func(k, v uint64) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
	}
}

// MemStats describes the table's memory footprint and shape.
type MemStats struct {
	GlobalDepth    uint
	DirectorySlots int
	DirectoryBytes int // pointer array (slots * 8 bytes)
	Buckets        int
	BucketBytes    int // buckets * page size
	Entries        int
	LoadFactor     float64 // entries / (buckets * bucket capacity)
	AvgFanIn       float64
	DepthHistogram map[uint]int // local depth -> bucket count
	MinLocalDepth  uint
	MaxLocalDepth  uint
	BytesPerEntry  float64
	StructuralMods uint64 // version: splits + doubles
}

// Stats scans the directory and returns shape and footprint statistics.
func (t *Table) Stats() MemStats {
	s := MemStats{
		GlobalDepth:    t.gd,
		DirectorySlots: len(t.dir),
		DirectoryBytes: len(t.dir) * 8,
		Buckets:        t.buckets,
		BucketBytes:    t.buckets * sys.PageSize(),
		Entries:        t.count,
		AvgFanIn:       t.AvgFanIn(),
		DepthHistogram: map[uint]int{},
		StructuralMods: t.version,
	}
	if t.buckets > 0 {
		s.LoadFactor = float64(t.count) / float64(t.buckets*bucket.Capacity)
	}
	seen := make(map[uintptr]struct{}, t.buckets)
	first := true
	for _, addr := range t.dir {
		if _, dup := seen[addr]; dup {
			continue
		}
		seen[addr] = struct{}{}
		ld := bucket.ViewAddr(addr).LocalDepth()
		s.DepthHistogram[ld]++
		if first || ld < s.MinLocalDepth {
			s.MinLocalDepth = ld
		}
		if first || ld > s.MaxLocalDepth {
			s.MaxLocalDepth = ld
		}
		first = false
	}
	if t.count > 0 {
		s.BytesPerEntry = float64(s.DirectoryBytes+s.BucketBytes) / float64(t.count)
	}
	return s
}
