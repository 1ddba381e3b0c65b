package vmshortcut

import (
	"io"
	"time"

	"vmshortcut/internal/core"
	"vmshortcut/internal/eh"
	"vmshortcut/internal/pool"
	"vmshortcut/internal/sceh"
)

// Index is the common operation surface of both Store kinds: an
// upserting Insert, a Lookup, a Delete, and the entry count.
type Index interface {
	Insert(key, value uint64) error
	Lookup(key uint64) (uint64, bool)
	Delete(key uint64) bool
	Len() int
}

// Pool re-exports the physical page pool (one memfd-backed main-memory
// file with a stable linear window).
type Pool = pool.Pool

// PoolConfig re-exports the pool configuration.
type PoolConfig = pool.Config

// PageRef identifies a physical page by its offset in the pool file.
type PageRef = pool.Ref

// TraditionalNode is a pointer-based radix inner node over pool pages.
type TraditionalNode = core.Traditional

// ShortcutNode is a page-table-expressed inner node: one virtual page per
// slot, rewired onto the physical pages of its leaves.
type ShortcutNode = core.Shortcut

// NewPool creates a physical page pool.
func NewPool(cfg PoolConfig) (*Pool, error) { return pool.New(cfg) }

// NewTraditionalNode allocates a pointer-based inner node with k slots.
func NewTraditionalNode(p *Pool, k int) *TraditionalNode { return core.NewTraditional(p, k) }

// NewShortcutNode reserves the virtual area for a k-slot shortcut node.
func NewShortcutNode(p *Pool, k int) (*ShortcutNode, error) { return core.NewShortcut(p, k) }

// ExtendibleConfig configures RestoreExtendibleHashing.
type ExtendibleConfig = eh.Config

// ExtendibleHashing is the EH baseline with access to its directory
// statistics (global depth, bucket count, version); AsExtendibleHashing
// returns the one behind an open KindEH store.
type ExtendibleHashing = eh.Table

// ShortcutEH is the paper's contribution: extendible hashing whose
// directory is additionally expressed as a page-table shortcut, maintained
// asynchronously and used for lookups whenever it is in sync and the
// average fan-in permits. AsShortcutEH returns the one behind an open
// KindShortcutEH store.
type ShortcutEH = sceh.Table

// RestoreExtendibleHashing reads a snapshot written by
// (*ExtendibleHashing).WriteSnapshot into a fresh table backed by p.
func RestoreExtendibleHashing(p *Pool, cfg ExtendibleConfig, r io.Reader) (*ExtendibleHashing, error) {
	return eh.Restore(p, cfg, r)
}

// DefaultPollInterval is the paper's empirically chosen mapper tick (§4.1).
const DefaultPollInterval = 25 * time.Millisecond
