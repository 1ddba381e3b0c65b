// Package vmshortcut is a Go implementation of virtual-memory shortcuts —
// database index indirections expressed directly in the page table of the
// OS instead of materialized pointers — as introduced in
//
//	Felix Schuhknecht: "Taking the Shortcut: Actively Incorporating the
//	Virtual Memory Index of the OS to Hardware-Accelerate Database
//	Indexing", CIDR 2024.
//
// # Layers
//
// The package exposes three layers:
//
//   - The rewiring layer: a Pool of physical pages (one main-memory file
//     created with memfd_create) plus TraditionalNode and ShortcutNode —
//     radix-style inner nodes where the shortcut variant maps each slot's
//     virtual page straight onto the physical page of its leaf, so a
//     lookup resolves a single, hardware-accelerated indirection: the MMU
//     walks the page table instead of the index chasing a pointer.
//
//   - The index layer: two uint64→uint64 indexes behind one constructor,
//     Open(kind, opts...). Both kinds are served through the uniform Store
//     surface: the Index operations, ApplyBatch for ordered mixed
//     batches, Stats, WaitSync, and an idempotent Close.
//
//   - The simulation layer (vmsim): a deterministic software MMU — 4-level
//     page table, two-level TLB, three-level cache model — used by the
//     benchmark harness to regenerate the paper's hardware-bound figures
//     deterministically.
//
// # Index kinds
//
// Open serves the paper's index and the baseline it is built on:
//
//   - KindEH: classical extendible hashing — a pointer directory indexed
//     by the hash's most significant bits over 4 KB buckets; a bucket
//     split doubles the directory when local depth reaches global depth.
//   - KindShortcutEH: the paper's contribution. The EH directory is
//     additionally expressed as a page-table shortcut: one virtual page
//     per directory slot, remapped onto the physical page of its bucket.
//     A mapper thread maintains the shortcut asynchronously; lookups
//     route through it whenever it is in sync and the directory fan-in is
//     low enough for the TLB.
//
// The paper's other Figure 7 baselines — HT (open addressing, full
// rehash), HTI (Redis-style incremental rehash) and CH (chained hashing
// over a fixed directory) — live in internal/ht, internal/hti and
// internal/ch, and only the experiment runner (internal/experiments)
// builds them.
//
// # Quickstart
//
// Opening the paper's index takes one call — Open creates and owns the
// backing page pool:
//
//	idx, err := vmshortcut.Open(vmshortcut.KindShortcutEH)
//	if err != nil { ... }
//	defer idx.Close()
//	idx.Insert(1, 42)
//
// Functional options (WithCapacity, WithPollInterval, WithConcurrency,
// WithShards, ...) tune the chosen kind; options that do not apply to a
// kind are ignored so one option set can drive both. Open is the only
// constructor.
//
// # Concurrency
//
// The paper's prototype is single-writer; so is a plain Open store. Two
// options lift that:
//
//   - WithConcurrency(true) wraps the store in one readers-writer lock —
//     parallel lookups, exclusive mutation.
//   - WithShards(n) hash-partitions the keyspace across n independent
//     sub-stores, each with its own lock stripe and page pool. Single
//     operations route by key hash; batches split by shard and fan out
//     across goroutines; Stats aggregates; WaitSync and Close fan out and
//     drain. Writers to different shards proceed in parallel.
//
// Under either option, pure-GET traffic takes a lock-free fast path:
// writers bump a per-shard sequence counter (odd while mutating), and
// readers run optimistic seqlock passes that they keep only if the
// counter did not move. Stats reports how GETs were served
// (FastpathSeqlockReads / FastpathLockedReads).
//
// All rewired memory lives outside the Go heap; the garbage collector
// never observes it. Linux is required for the rewiring layer (memfd +
// MAP_FIXED); every other layer is portable.
//
// # Close ordering
//
// Close — on a plain, concurrent, sharded, or durable store alike —
// returns only after (1) in-flight operations have drained (the
// concurrent wrapper's write lock, taken per shard on a sharded store),
// and (2) every background maintenance goroutine the store started has
// stopped: each shard's Shortcut-EH mapper thread is joined, and a
// durable store's WAL interval syncer is stopped after a final
// flush+fsync. After Close returns, no goroutine started by Open remains
// running and no further disk writes occur; operations started after
// Close fail with ErrClosed (or report "not found" where the signature
// has no error).
//
// # Durability
//
// A store is in-memory by default; WithWAL(dir) makes it restart-safe.
// Every mutation batch is appended as one CRC-checked record to an
// append-only, segment-rotated write-ahead log (package wal) — one
// record per caller-facing batch, so the server's coalescer and the
// sharded fan-out keep durability off the per-op path. WithFsync selects
// the policy: FsyncAlways (the default) group-commits an fsync before
// the mutation returns, so an acknowledged write survives kill -9;
// FsyncInterval bounds loss to a background sync period; FsyncOff leaves
// write-back to the OS. Point-in-time snapshots (package persist, driven
// by the Store.Range capability every kind implements natively) bound
// recovery time: Open recovers by restoring the newest valid snapshot
// and replaying the WAL tail, truncating a torn final record. Snapshots
// are taken automatically every WithSnapshotEvery(n) records, or
// explicitly through the Durable surface (AsDurable: Snapshot,
// CompactWAL), and store plain pairs — they restore into either kind.
//
// # Serving
//
// The server and client packages put a Store on the network: a TCP
// server speaking a length-prefixed binary protocol with full
// pipelining, whose per-connection coalescer gathers pipelined requests
// into one ApplyBatch call — one lock acquisition, one sharded fan-out
// and one WAL record per round trip.
// With Config.Metrics set, the server times every batch through its
// pipeline stages into histograms, rendered at the admin listener's
// /metrics and in the STATS reply's obs section.
// cmd/ehserver is the standalone daemon (every Open option as a flag),
// cmd/ehload the YCSB load generator that records throughput and HDR
// latency percentiles to BENCH_server.json.
package vmshortcut
