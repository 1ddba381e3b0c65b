// Package sceh implements Shortcut-EH (paper §4.1): extendible hashing
// whose directory is additionally expressed as a shortcut in the page
// table of the OS.
//
// # The shortcut mechanism
//
// A traditional EH lookup resolves two indirections: directory slot →
// bucket pointer → bucket page. The shortcut collapses the first one into
// the MMU. The directory is mirrored as a contiguous virtual area with one
// page per slot, and each slot's virtual page is rewired (mmap MAP_FIXED
// over the pool's memfd) onto the physical page of its bucket. Reading
// shortcutBase + slot*pageSize then IS the bucket access — the page-table
// walk the CPU performs anyway replaces the pointer chase, and the TLB
// caches it.
//
// # Asynchronous maintenance
//
// The traditional pointer directory stays authoritative: every
// directory-modifying operation is applied to it synchronously. A separate
// mapper thread replays those modifications into the shortcut directory
// asynchronously, driven by a concurrent lock-free FIFO queue of
// maintenance requests:
//
//   - a bucket split enqueues an update request (remap the two affected
//     slot ranges onto the two new bucket pages);
//   - a directory doubling enqueues a create request (retire the shortcut
//     and build a new one from a snapshot of all slot refs) — every
//     request queued before it, an older create included, is superseded.
//
// The mapper replays only when a reader needs the shortcut. Every tick
// (Config.PollInterval) moves the queue into a pending list and drops what
// a later create supersedes, so the list holds at most one create and the
// updates after it. The tick replays that list only if a lookup fell back
// to the traditional directory since the previous tick; otherwise the
// mapper parks. A lookup that falls back while the mapper is parked wakes
// it at once, and WaitSync always does. A write-only bulk load therefore
// issues no mmap until its first reader or WaitSync, and then builds one
// generation instead of one per doubling. Close discards the backlog.
//
// A failed create or update retires the live generation: lookups use the
// traditional directory until a later create succeeds, and
// Stats.MapperFailures counts the failure.
//
// A retired generation is not unmapped: one read-only anonymous mapping
// replaces its whole range before the next generation is built, so the
// two never hold pages at once. The range stays reserved until Close. The
// directory never halves, so each create is deeper than every earlier one
// and gets a fresh range.
//
// No non-test code truncates or unmaps a page that a shortcut generation
// can map. A split returns the old bucket page to the pool's free queue,
// buckets never merge, and the pool's file only grows until Close.
//
// Both directories carry version numbers. The shortcut's version advances
// only after the page-table population of the replayed request completes,
// so an in-sync shortcut never takes a page fault. Lookups route through
// the shortcut only when (a) the versions match and (b) the average fan-in
// is at most the paper's fixed threshold of 8 (§4.1; §3.2: high fan-in
// thrashes the TLB). The threshold is not a knob. The writer decides (b)
// when it enqueues each request, since fan-in moves only on the splits
// and doublings that bump the version, and the mapper publishes that
// decision with the version. A lookup therefore loads one published
// state, tests its routable bit and compares its version with the
// traditional one.
//
// The crossover fan-in is host-dependent: virtualized TLBs shift it well
// below the paper's 8–16. An adaptive router that timed both paths online
// was once an alternative to the fixed threshold. It was removed: on a
// 2-CPU VM (2^18 keys, one and two readers) it was slower than both the
// fixed threshold and the traditional path in every round, and the shared
// sample counter it bumped on every lookup kept it from scaling.
//
// # Concurrency
//
// A Table is single-writer, matching the paper. The facade's
// WithConcurrency lifts that to one writer at a time with parallel
// readers by putting a readers-writer lock (plus lifecycle handling) in
// front of the Table; the mapper thread needs no part in that lock. To
// scale writers
// across cores, the facade's WithShards hash-partitions the keyspace over
// several independent Tables (each with its own mapper thread and lock
// stripe) instead of sharing one lock.
//
// The facade's lock-free seqlock GET path calls Lookup beside a running
// writer and discards the answer when the writer moved. It relies on two
// things. A pending create implies no in-sync use of the old generation:
// the writer raises the traditional version before the mapper can retire
// anything, so a lookup that checks the version afterwards takes the
// traditional directory. And retired ranges read as empty buckets until
// Close: a lookup that checked the version earlier reads all-zero pages,
// misses, and never faults.
package sceh
