package vmshortcut

import (
	"time"

	"vmshortcut/internal/core"
	"vmshortcut/internal/pool"
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

// DefaultPollInterval is the paper's empirically chosen mapper tick (§4.1).
const DefaultPollInterval = 25 * time.Millisecond
