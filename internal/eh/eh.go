package eh

import (
	"errors"
	"fmt"

	"vmshortcut/internal/bucket"
	"vmshortcut/internal/hashfn"
	"vmshortcut/internal/pool"
)

// Event describes one directory modification, tagged with the directory
// version after the modification was applied.
type Event interface{ isEvent() }

// SplitEvent reports a bucket split: directory slots [Lo0,Hi0) now
// reference the page Ref0 and slots [Lo1,Hi1) reference Ref1.
type SplitEvent struct {
	Version  uint64
	Lo0, Hi0 uint64
	Ref0     pool.Ref
	Lo1, Hi1 uint64
	Ref1     pool.Ref
}

// DoubleEvent reports a directory doubling. Refs is a snapshot of every
// slot's page ref after the doubling, in slot order.
type DoubleEvent struct {
	Version     uint64
	GlobalDepth uint
	Refs        []pool.Ref
}

func (SplitEvent) isEvent()  {}
func (DoubleEvent) isEvent() {}

// MaxLoadFactor is the bucket occupancy beyond which a bucket splits:
// the paper's 0.35 (§4.2).
const MaxLoadFactor = 0.35

// MaxFill is MaxLoadFactor in entries of one bucket, rounded down (89 of
// 255): an insert of a new key into a bucket that already holds MaxFill
// entries splits it first. The product is scaled by 100 so that the
// constant conversion to int is exact.
const MaxFill = int(MaxLoadFactor*bucket.Capacity*100) / 100

// Config tunes a Table. The zero value selects the paper's parameters.
type Config struct {
	// MaxGlobalDepth bounds directory growth. Default 30 (a billion
	// slots) — effectively unbounded for in-memory use.
	MaxGlobalDepth uint
	// InitialGlobalDepth pre-sizes the directory (0 = single slot).
	InitialGlobalDepth uint
}

func (c *Config) fill() {
	if c.MaxGlobalDepth == 0 {
		c.MaxGlobalDepth = 30
	}
}

// ErrDirectoryLimit is returned when a split would exceed MaxGlobalDepth.
var ErrDirectoryLimit = errors.New("eh: directory reached MaxGlobalDepth")

// Table is an extendible hash table mapping uint64 keys to uint64 values.
// It is not safe for concurrent mutation; the paper's design has a single
// writer thread (lookups through sceh coordinate via version numbers).
type Table struct {
	pool    *pool.Pool
	dir     []uintptr // window address of each slot's bucket page
	refs    []pool.Ref
	gd      uint
	buckets int
	count   int
	version uint64
	cfg     Config
	onEvent func(Event)

	// Splits and Doubles count structural modifications; their sum is
	// the directory version.
	Splits  int
	Doubles int
}

// New creates a table with a single empty bucket — the paper's starting
// point of 4 KB effective space.
func New(p *pool.Pool, cfg Config) (*Table, error) {
	cfg.fill()
	t := &Table{pool: p, cfg: cfg}
	ref, err := p.Alloc()
	if err != nil {
		return nil, fmt.Errorf("eh: allocating first bucket: %w", err)
	}
	bucket.ViewAddr(p.Addr(ref)).Reset(0)
	t.dir = []uintptr{p.Addr(ref)}
	t.refs = []pool.Ref{ref}
	t.buckets = 1
	for t.gd < cfg.InitialGlobalDepth {
		if err := t.double(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// SetEventFunc registers fn to observe directory modifications. Must be
// set before any mutation; events fire synchronously on the writer
// goroutine after the directory reflects the modification.
func (t *Table) SetEventFunc(fn func(Event)) { t.onEvent = fn }

// GlobalDepth returns the directory's global depth.
func (t *Table) GlobalDepth() uint { return t.gd }

// Buckets returns the number of distinct buckets.
func (t *Table) Buckets() int { return t.buckets }

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.count }

// Version returns the directory version: the count of modifications
// (splits and doublings) applied so far.
func (t *Table) Version() uint64 { return t.version }

// AvgFanIn returns the average number of directory slots per bucket.
func (t *Table) AvgFanIn() float64 { return float64(len(t.dir)) / float64(t.buckets) }

// Refs returns a snapshot of each directory slot's page ref.
func (t *Table) Refs() []pool.Ref {
	out := make([]pool.Ref, len(t.refs))
	copy(out, t.refs)
	return out
}

// DirAddr exposes slot i's bucket address — the traditional access path.
func (t *Table) DirAddr(i uint64) uintptr { return t.dir[i] }

// SlotOf returns the directory slot key hashes to.
func (t *Table) SlotOf(key uint64) uint64 {
	return hashfn.DirIndex(hashfn.Hash(key), t.gd)
}

// Insert upserts (key, value), splitting buckets and doubling the
// directory as needed.
func (t *Table) Insert(key, value uint64) error {
	h := hashfn.Hash(key)
	for {
		idx := hashfn.DirIndex(h, t.gd)
		b := bucket.ViewAddr(t.dir[idx])
		if _, exists := b.Lookup(key); exists {
			b.Insert(key, value)
			return nil
		}
		if b.Count() < MaxFill {
			if !b.Insert(key, value) {
				return fmt.Errorf("eh: bucket rejected insert below fill threshold")
			}
			t.count++
			return nil
		}
		if err := t.split(idx); err != nil {
			return err
		}
	}
}

// Lookup returns the value stored for key.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	idx := hashfn.DirIndex(hashfn.Hash(key), t.gd)
	return bucket.ViewAddr(t.dir[idx]).Lookup(key)
}

// Range calls fn for every stored entry until fn returns false. Each
// distinct bucket is visited once even when several directory slots fan in
// to it. Iteration order is unspecified. fn must not mutate the table.
func (t *Table) Range(fn func(key, value uint64) bool) {
	seen := make(map[pool.Ref]struct{}, t.buckets)
	stop := false
	for i, r := range t.refs {
		if _, ok := seen[r]; ok {
			continue
		}
		seen[r] = struct{}{}
		bucket.ViewAddr(t.dir[i]).ForEach(func(k, v uint64) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Delete removes key and reports whether it was present. Buckets never
// merge and the directory never halves, as in the paper's prototype: a
// table only grows until it is discarded.
func (t *Table) Delete(key uint64) bool {
	idx := hashfn.DirIndex(hashfn.Hash(key), t.gd)
	if bucket.ViewAddr(t.dir[idx]).Delete(key) {
		t.count--
		return true
	}
	return false
}

// split splits the bucket referenced by directory slot idx, doubling the
// directory first if its local depth has reached the global depth.
func (t *Table) split(idx uint64) error {
	oldAddr := t.dir[idx]
	b := bucket.ViewAddr(oldAddr)
	ld := b.LocalDepth()
	if ld >= 63 {
		return fmt.Errorf("eh: bucket local depth exhausted")
	}
	if ld == t.gd {
		if err := t.double(); err != nil {
			return err
		}
		idx = idx * 2 // the old slot's lower child still holds the bucket
	}

	newRefs, err := t.pool.AllocN(2)
	if err != nil {
		return fmt.Errorf("eh: allocating split buckets: %w", err)
	}
	b0 := bucket.ViewAddr(t.pool.Addr(newRefs[0]))
	b1 := bucket.ViewAddr(t.pool.Addr(newRefs[1]))
	b.SplitInto(b0, b1)

	// All slots sharing the bucket's ld-bit prefix split into two halves.
	span := uint64(1) << (t.gd - ld)
	lo := idx &^ (span - 1)
	hi := lo + span
	mid := lo + span/2
	for s := lo; s < mid; s++ {
		t.dir[s] = t.pool.Addr(newRefs[0])
		t.refs[s] = newRefs[0]
	}
	for s := mid; s < hi; s++ {
		t.dir[s] = t.pool.Addr(newRefs[1])
		t.refs[s] = newRefs[1]
	}
	// The split page is no longer referenced by any slot; recycle it.
	if oldRef, err := t.pool.RefOf(oldAddr); err == nil {
		t.pool.Free(oldRef)
	}
	t.buckets++
	t.version++
	t.Splits++
	if t.onEvent != nil {
		t.onEvent(SplitEvent{
			Version: t.version,
			Lo0:     lo, Hi0: mid, Ref0: newRefs[0],
			Lo1: mid, Hi1: hi, Ref1: newRefs[1],
		})
	}
	return nil
}

// double doubles the directory: slot i becomes slots 2i and 2i+1 (MSB
// indexing preserves prefix order).
func (t *Table) double() error {
	if t.gd >= t.cfg.MaxGlobalDepth {
		return ErrDirectoryLimit
	}
	newDir := make([]uintptr, 2*len(t.dir))
	newRefs := make([]pool.Ref, 2*len(t.refs))
	for i, addr := range t.dir {
		newDir[2*i] = addr
		newDir[2*i+1] = addr
		newRefs[2*i] = t.refs[i]
		newRefs[2*i+1] = t.refs[i]
	}
	t.dir = newDir
	t.refs = newRefs
	t.gd++
	t.version++
	t.Doubles++
	if t.onEvent != nil {
		t.onEvent(DoubleEvent{Version: t.version, GlobalDepth: t.gd, Refs: t.Refs()})
	}
	return nil
}
