// Package pool implements the self-managed pool of physical pages that
// memory rewiring requires (paper §2.1). The pool is represented by a
// single main-memory file created with memfd_create. It grows on demand
// via ftruncate and never shrinks before Close, keeps a FIFO queue of free
// page offsets for reuse, and maintains a stable virtual window (v_pool)
// that maps linearly onto the entire file so every physical page is always
// addressable. Because the file only grows, a freed page never lies past
// EOF, and a stale mapping of it reads whatever the page holds now
// instead of faulting.
//
// All physical memory of nodes that a shortcut may ever point to must be
// allocated from this pool: a shortcut directory slot is populated by
// mmap'ing the slot's virtual page onto the leaf's file offset, and the
// construction recovers that offset from the leaf's window address via
// offset = addr - window. Rewiring a slot is therefore one mmap(MAP_FIXED)
// over the memfd — the page table itself becomes the index's inner node.
//
// A Pool is safe for concurrent use: one internal mutex serializes
// allocation, free and window management. Every vmshortcut store owns one
// pool — a sharded store one per shard — which keeps allocation
// uncontended and lets Close release each shard's file independently.
package pool
