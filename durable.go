package vmshortcut

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmshortcut/internal/obs"
	"vmshortcut/internal/op"
	"vmshortcut/persist"
	"vmshortcut/wal"
)

// FsyncMode re-exports the WAL's fsync policy for WithFsync.
type FsyncMode = wal.FsyncMode

// The fsync policies: sync before every acknowledged write (group-
// committed), on a background interval, or never (OS writeback only).
const (
	FsyncAlways   = wal.FsyncAlways
	FsyncInterval = wal.FsyncInterval
	FsyncOff      = wal.FsyncOff
)

// ParseFsyncMode re-exports the flag-style parser ("always", "interval",
// "off") for command-line surfaces.
func ParseFsyncMode(name string) (FsyncMode, error) { return wal.ParseFsyncMode(name) }

// WithWAL makes the store durable: every mutation batch is appended to a
// write-ahead log in dir before it is acknowledged, point-in-time
// snapshots bound recovery time, and Open recovers the keyspace from the
// newest valid snapshot plus the log tail — truncating a torn final
// record — before serving. The other durability options (WithFsync,
// WithFsyncInterval, WithSnapshotEvery, WithWALSegmentBytes) only apply
// together with WithWAL and are ignored otherwise.
func WithWAL(dir string) Option {
	return func(o *storeOptions) {
		if dir == "" {
			o.fail("vmshortcut: WithWAL(\"\"): directory required")
			return
		}
		o.walDir = dir
	}
}

// WithFsync selects when log appends reach stable storage: FsyncAlways
// (the default — an acknowledged write survives kill -9), FsyncInterval,
// or FsyncOff.
func WithFsync(mode FsyncMode) Option {
	return func(o *storeOptions) {
		if mode != FsyncAlways && mode != FsyncInterval && mode != FsyncOff {
			o.fail("vmshortcut: WithFsync(%v): unknown mode", mode)
			return
		}
		o.fsyncMode = mode
	}
}

// WithFsyncInterval sets the background sync period used by
// FsyncInterval. Default 100ms.
func WithFsyncInterval(d time.Duration) Option {
	return func(o *storeOptions) {
		if d <= 0 {
			o.fail("vmshortcut: WithFsyncInterval(%v): must be positive", d)
			return
		}
		o.fsyncInterval = d
	}
}

// WithSnapshotEvery takes an automatic snapshot (and compacts the log)
// after every n appended WAL records. 0, the default, snapshots only on
// explicit request (Durable.Snapshot) — the log then grows until one is
// taken.
func WithSnapshotEvery(n int) Option {
	return func(o *storeOptions) {
		if n < 0 {
			o.fail("vmshortcut: WithSnapshotEvery(%d): must be non-negative", n)
			return
		}
		o.snapshotEvery = n
	}
}

// WithWALSegmentBytes sets the log's segment rotation threshold (default
// 64 MiB). Mostly for tests, which rotate small segments quickly.
func WithWALSegmentBytes(n int64) Option {
	return func(o *storeOptions) {
		if n <= 0 {
			o.fail("vmshortcut: WithWALSegmentBytes(%d): must be positive", n)
			return
		}
		o.walSegmentBytes = n
	}
}

// WithFsyncHist records the duration of every WAL fsync syscall into h —
// the observability layer's eh_stage_wal_fsync_ns histogram. Fsyncs are
// timed globally rather than per batch because one group-commit leader's
// sync covers many batches. Nil (the default) disables recording.
func WithFsyncHist(h *obs.Hist) Option {
	return func(o *storeOptions) { o.fsyncHist = h }
}

// Durable is the management surface of a store opened with WithWAL,
// recovered through AsDurable.
type Durable interface {
	// Snapshot writes a point-in-time snapshot of the keyspace to the
	// WAL directory (atomically: temp file, fsync, rename) and prunes
	// snapshots it supersedes. Mutations are blocked for the duration.
	Snapshot() error
	// CompactWAL removes log segments the newest snapshot has made
	// redundant, returning how many were deleted.
	CompactWAL() (int, error)
	// WALStats snapshots the underlying log's counters.
	WALStats() wal.Stats
}

// AsDurable returns the durability management surface of a store opened
// with WithWAL, and reports whether s is one.
func AsDurable(s Store) (Durable, bool) {
	d, ok := s.(*durableStore)
	return d, ok
}

// snapName formats the snapshot filename for the WAL position it covers.
func snapName(lsn uint64) string { return fmt.Sprintf("snap-%016x.snap", lsn) }

// parseSnapName extracts the covered LSN from a snapshot filename.
func parseSnapName(name string) (uint64, bool) {
	var lsn uint64
	if _, err := fmt.Sscanf(name, "snap-%016x.snap", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// durableStore wraps an inner store (sharded or not) with the WAL and the
// snapshot layer. Every mutation reaches the log through the one append
// path, AppendBatch, as one record. The ordering contract: ApplyBatch — and
// Insert, a one-PUT ApplyBatch — applies to the inner store first and
// then appends (a record is only ever logged for a batch the store
// accepted, so replay cannot re-fail a rejected insert — e.g. one an
// exhausted page pool refused); Delete logs first and applies after (it
// cannot fail, and its signature has no error channel, so nothing may be
// applied ahead of its record). Under FsyncAlways the append has fsynced before it returns,
// so a mutation is only acknowledged once durable. Concurrent mutations of
// the same key have no defined order (exactly as on a non-durable
// concurrent store); the log serializes them in some valid order and
// recovery reproduces that one.
type durableStore struct {
	inner Store
	log   *wal.Log
	dir   string

	// mu coordinates mutations (read side) with snapshots and Close
	// (write side): a snapshot sees a quiescent keyspace whose log
	// position is exact.
	mu        sync.RWMutex
	closed    atomic.Bool
	snapLSN   atomic.Uint64 // position covered by the newest snapshot
	snapEvery uint64
	snapping  atomic.Bool    // an automatic snapshot is already in flight
	bg        sync.WaitGroup // automatic-snapshot goroutines; joined by Close
}

// openDurable recovers the keyspace from o.walDir into a freshly built
// inner store and returns the durable wrapper. Recovery order: newest
// valid snapshot (invalid ones are skipped in favor of older), then the
// log tail — records at or before the snapshot's position are skipped,
// later ones replayed through the inner store's own batch paths.
func openDurable(inner Store, o *storeOptions) (Store, error) {
	fail := func(err error) (Store, error) {
		inner.Close()
		return nil, err
	}
	if err := os.MkdirAll(o.walDir, 0o755); err != nil {
		return fail(fmt.Errorf("vmshortcut: creating WAL dir: %w", err))
	}
	baseLSN, err := restoreNewestSnapshot(o.walDir, inner)
	if err != nil {
		return fail(err)
	}
	// Replay pushes each record — uniform or mixed, it is the same
	// op.Batch representation the serving stack logged — back through the
	// store's own batch path. GET entries inside a mixed record replay as
	// lookups, i.e. as no-ops; a rejected insert aborts recovery (such a
	// batch is never logged, so hitting one means the log and the store
	// configuration disagree).
	var rres op.Results
	replay := func(lsn uint64, b *op.Batch) error {
		if lsn <= baseLSN {
			return nil // the snapshot already covers this record
		}
		return inner.ApplyBatch(b, &rres)
	}
	log, err := wal.Open(o.walDir, wal.Options{
		Mode:         o.fsyncMode,
		Interval:     o.fsyncInterval,
		SegmentBytes: o.walSegmentBytes,
		FsyncHist:    o.fsyncHist,
	}, replay)
	if err != nil {
		return fail(fmt.Errorf("vmshortcut: opening WAL: %w", err))
	}
	// The snapshot and the log must meet: records in (baseLSN, oldest)
	// exist nowhere, and a log that ends before the snapshot position
	// would hand out already-covered LSNs to new writes. Either means
	// the newest snapshot was lost/corrupt after its WAL prefix was
	// compacted (or files were deleted by hand) — refuse loudly instead
	// of serving a keyspace with a silent hole.
	if oldest := log.OldestLSN(); oldest > baseLSN+1 {
		log.Close()
		return fail(fmt.Errorf("vmshortcut: recovery hole: WAL starts at LSN %d but the newest restorable snapshot covers only LSN %d (a newer snapshot is missing or corrupt)",
			oldest, baseLSN))
	}
	if last := log.LastLSN(); last < baseLSN {
		log.Close()
		return fail(fmt.Errorf("vmshortcut: recovery hole: WAL ends at LSN %d but the newest snapshot covers LSN %d (log truncated?)",
			last, baseLSN))
	}
	d := &durableStore{inner: inner, log: log, dir: o.walDir, snapEvery: uint64(o.snapshotEvery)}
	d.snapLSN.Store(baseLSN)
	return d, nil
}

// restoreNewestSnapshot loads the newest valid snapshot in dir into the
// store and returns the WAL position it covers (0 when none). Each
// candidate is verified end to end before a single pair is applied, so an
// invalid snapshot cannot leave the store partially populated.
func restoreNewestSnapshot(dir string, into Store) (uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("vmshortcut: reading WAL dir: %w", err)
	}
	var lsns []uint64
	for _, e := range entries {
		if lsn, ok := parseSnapName(e.Name()); ok {
			lsns = append(lsns, lsn)
		}
	}
	sort.Slice(lsns, func(i, j int) bool { return lsns[i] > lsns[j] })
	for _, lsn := range lsns {
		path := filepath.Join(dir, snapName(lsn))
		ok, err := func() (bool, error) {
			f, err := os.Open(path)
			if err != nil {
				return false, nil // unreadable: fall through to older
			}
			defer f.Close()
			if _, err := persist.Verify(f); err != nil {
				return false, nil // invalid: fall through to older
			}
			if _, err := f.Seek(0, 0); err != nil {
				return false, err
			}
			if _, err := persist.RestoreInto(f, into); err != nil {
				return false, fmt.Errorf("vmshortcut: restoring %s: %w", path, err)
			}
			return true, nil
		}()
		if err != nil {
			return 0, err
		}
		if ok {
			return lsn, nil
		}
	}
	return 0, nil
}

func (d *durableStore) Kind() Kind { return d.inner.Kind() }

func (d *durableStore) Lookup(key uint64) (uint64, bool) { return d.inner.Lookup(key) }

func (d *durableStore) Len() int { return d.inner.Len() }

func (d *durableStore) Range(fn func(key, value uint64) bool) { d.inner.Range(fn) }

func (d *durableStore) WaitSync(timeout time.Duration) bool { return d.inner.WaitSync(timeout) }

// Insert is a one-PUT ApplyBatch: apply, then log.
func (d *durableStore) Insert(key, value uint64) error {
	var b op.Batch
	b.Put(key, value)
	var res op.Results
	return d.ApplyBatch(&b, &res)
}

// Delete logs a one-DEL record before it applies — the reverse of
// ApplyBatch. A delete cannot fail on the inner store, so replaying a DEL
// record for an unapplied delete is harmless; and the signature has no
// error channel, which is exactly why the mutation must not happen ahead
// of its record here. On append failure nothing is applied and Delete
// reports false. Caveat, shared with every non-atomic log: a record
// whose fsync failed may still be on disk, and recovery will apply it —
// an unacknowledged delete may take effect after a crash. The log is
// fail-stop (the first I/O error is sticky and every later mutation
// fails loudly), so the window is one record.
func (d *durableStore) Delete(key uint64) bool {
	if d.closed.Load() {
		return false
	}
	var buf [12]byte
	payload := op.AppendKeysPayload(buf[:0], []uint64{key})
	d.mu.RLock()
	defer d.mu.RUnlock()
	lsn, err := d.log.AppendBatch(wal.OpDel, payload)
	if err != nil {
		return false
	}
	ok := d.inner.Delete(key)
	d.maybeSnapshot(lsn) // under the read lock; see ApplyBatch
	return ok
}

// ApplyBatch applies the mixed batch to the inner store and then appends
// ONE log record for it — the record's payload being the batch's own
// wire payload, handed to the log zero-copy (op.Batch.Payload returns
// the received frame bytes when the batch came off a socket, and encodes
// exactly once otherwise). A batch with no mutations is not logged.
//
// Ordering: apply-then-log for the whole batch. ApplyBatch — unlike
// Delete — has an error channel, so its DEL entries need no log-first
// ordering: on any failure (a rejected insert, an append error) the
// whole batch fails as a unit and the caller acknowledges nothing, which
// keeps "acknowledged ⇒ durable" intact. The flip side,
// shared with every failed append on this log, is that a FAILED batch
// may have taken effect in memory without a record; the log is fail-stop
// (the first I/O error is sticky), so that window is one batch. And as
// on the insert path, a record is only ever logged for a batch the store
// accepted, so replay cannot re-fail.
func (d *durableStore) ApplyBatch(b *op.Batch, res *op.Results) error {
	if b.Len() == 0 {
		res.Reset(0)
		return nil
	}
	if d.closed.Load() {
		res.Reset(b.Len())
		return ErrClosed
	}
	if b.Mutations() == 0 {
		// Pure reads need no record and no (keyspace, LSN) exactness, so
		// they bypass d.mu entirely — a running snapshot (which holds the
		// write lock for its O(keyspace) duration) must not stall the
		// serving path's GET traffic.
		return d.inner.ApplyBatch(b, res)
	}
	// Validate the record BEFORE applying: rejecting after the apply
	// would leave mutations live in memory with no record and no sticky
	// log error — silent divergence a crash would then surface as loss.
	// One batch is one record by design, so it must fit.
	if b.Len() > wal.MaxRecordPairs {
		res.Reset(b.Len())
		return fmt.Errorf("vmshortcut: ApplyBatch: %d entries exceed one WAL record's capacity (%d); split the batch",
			b.Len(), wal.MaxRecordPairs)
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	// Split the batch's trace at the apply/append boundary: StageApply is
	// the in-memory store mutation, StageWALAppend is the log append
	// including any group-commit wait for the fsync covering this record.
	tr := b.Trace()
	var t0 time.Time
	if tr != nil {
		t0 = time.Now()
	}
	if err := d.inner.ApplyBatch(b, res); err != nil {
		return err
	}
	if tr != nil {
		now := time.Now()
		tr.Add(obs.StageApply, now.Sub(t0))
		t0 = now
	}
	code, payload := b.Payload()
	lsn, err := d.log.AppendBatch(code, payload)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.Add(obs.StageWALAppend, time.Since(t0))
	}
	// Still under the read lock: the bg.Add inside is thereby ordered
	// before any Close (which needs the write lock first), so Close's
	// bg.Wait cannot race the Add.
	d.maybeSnapshot(lsn)
	return nil
}

// maybeSnapshot triggers the automatic snapshot once the log has grown
// snapEvery records past the last one. The CAS admits one trigger at a
// time, and the snapshot itself runs on its own goroutine — the request
// that crossed the threshold is not held hostage for the O(keyspace)
// write. Writers do still pause while the snapshot holds the write lock;
// what the async hand-off removes is the triggering client's extra wait
// and the serving goroutine's involvement.
//
// Callers invoke this while holding d.mu.RLock: that orders the bg.Add
// before any Close (write lock), so Close's bg.Wait never races the Add
// — and the goroutine itself starts by taking the write lock, so it
// cannot run before the caller's read lock is released.
func (d *durableStore) maybeSnapshot(lsn uint64) {
	if d.snapEvery == 0 {
		return
	}
	// A writer can reach here with an lsn older than a snapshot another
	// writer just took; the subtraction would underflow and trigger a
	// spurious (stop-the-world) snapshot right after the real one.
	if base := d.snapLSN.Load(); lsn < base || lsn-base < d.snapEvery {
		return
	}
	if !d.snapping.CompareAndSwap(false, true) {
		return
	}
	d.bg.Add(1)
	go func() {
		defer d.bg.Done()
		defer d.snapping.Store(false)
		if err := d.Snapshot(); err != nil {
			return // ErrClosed during shutdown, or an I/O failure
		}
		d.CompactWAL()
	}()
}

// Snapshot writes a point-in-time snapshot covering the current log
// position: temp file, fsync, atomic rename, directory fsync — then
// prunes older snapshots. Mutations are excluded for the duration, so
// the (keyspace, LSN) pair is exact.
func (d *durableStore) Snapshot() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	// Force every appended record onto disk before adopting the current
	// position as the snapshot's LSN. Without this (under FsyncInterval/
	// FsyncOff) the snapshot could cover records that exist only in the
	// write buffer; after a crash the log's replayable tail would end
	// below the snapshot position, and post-restart appends would reuse
	// LSNs the snapshot already claims.
	if err := d.log.Sync(); err != nil {
		return err
	}
	lsn := d.log.LastLSN()
	path := filepath.Join(d.dir, snapName(lsn))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("vmshortcut: creating snapshot: %w", err)
	}
	if err := persist.Snapshot(f, d.inner); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("vmshortcut: syncing snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("vmshortcut: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("vmshortcut: publishing snapshot: %w", err)
	}
	if err := wal.SyncDir(d.dir); err != nil {
		return fmt.Errorf("vmshortcut: syncing WAL dir: %w", err)
	}
	d.snapLSN.Store(lsn)
	d.pruneSnapshotsLocked(lsn)
	return nil
}

// pruneSnapshotsLocked removes snapshots older than the one covering
// keep. Failures are ignored: a stale snapshot costs disk, not
// correctness.
func (d *durableStore) pruneSnapshotsLocked(keep uint64) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if lsn, ok := parseSnapName(e.Name()); ok && lsn < keep {
			os.Remove(filepath.Join(d.dir, e.Name()))
		}
	}
}

// CompactWAL drops log segments fully covered by the newest snapshot.
func (d *durableStore) CompactWAL() (int, error) {
	if d.closed.Load() {
		return 0, ErrClosed
	}
	return d.log.Compact(d.snapLSN.Load())
}

// WALStats snapshots the log's counters.
func (d *durableStore) WALStats() wal.Stats { return d.log.Stats() }

// Stats reports the inner store's counters with the durability fields
// filled in.
func (d *durableStore) Stats() Stats {
	st := d.inner.Stats()
	ls := d.log.Stats()
	st.WALRecords = ls.LastLSN
	st.WALSyncs = ls.Syncs
	st.WALSegments = ls.Segments
	st.WALBytes = ls.Bytes
	st.SnapshotLSN = d.snapLSN.Load()
	st.DurableLSN = ls.SyncedLSN
	return st
}

// Close drains in-flight mutations, stops the log's background syncer (a
// final flush+fsync makes every applied mutation durable regardless of
// the fsync policy), closes the log, and closes the inner store — in that
// order, so no background goroutine outlives Close.
func (d *durableStore) Close() error {
	d.mu.Lock()
	if d.closed.Swap(true) {
		d.mu.Unlock()
		return nil
	}
	firstErr := d.log.Close()
	if err := d.inner.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	d.mu.Unlock()
	// Join any automatic-snapshot goroutine (it may be parked on mu; once
	// it runs it sees closed and exits), upholding the Close ordering
	// guarantee: no goroutine started by this store survives Close.
	d.bg.Wait()
	return firstErr
}
