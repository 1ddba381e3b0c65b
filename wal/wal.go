// Package wal is the durability subsystem's write-ahead log: an
// append-only, CRC32-checked, length-prefixed record log over rotating
// segment files. Each record carries a whole operation batch, so the
// store's batch-oriented hot path — the server's coalescer, the sharded
// fan-out — costs one log append (and, with FsyncAlways, one shared
// sync) per batch, not per operation.
//
// # Durability policies
//
// FsyncAlways syncs before AppendBatch returns, with group commit: a sync
// leader flushes everything appended so far and syncs outside the log
// lock, so appends continue meanwhile, and every appender whose record
// that flush covered waits on the published durable position instead of
// syncing itself. A writer waits only for a sync that covers its record.
// One whose record landed after the running sync's flush does not sit
// that sync out and then pay its own: it leads a second sync at once,
// beside the first. Two in flight is the bound: it is what stops two
// closed-loop writers from taking turns at one-record syncs (each
// commit then costs one sync time, not two), and the device overlaps two
// flushes of one file but gains little from more. Overlap must not cost
// grouping, so a second sync starts only once at least as many records
// wait as the latest flush carried: one record goes beside a one-record
// sync at once, while behind a sync that carries thirty the writers it
// will release are worth waiting for — whoever brings the count up leads,
// or, when the running sync finishes first, the next leader's single
// flush sweeps up everyone who waited. Many writers so keep grouping
// (BenchmarkAppendAlways reports records per sync by writer count).
// Every sync covers the whole file up to its flush, whichever leader
// issued it, so a later sync that finishes first has made the earlier
// one's records durable too, and an acknowledged record never sits behind
// an unsynced one. A failed sync is fail-stop: nothing above the position
// durable at that moment is ever acknowledged and every later append fails.
// FsyncInterval syncs on a background ticker (bounded data loss, no sync
// on the append path). FsyncOff leaves syncing to the OS (rotation and
// Close still sync). All three share the one sync path.
//
// # Segments and recovery
//
// The log is a directory of segment files named wal-<first-lsn>.log. The
// active segment is preallocated to SegmentBytes (fallocate, real size)
// and written at an explicit offset, so an append never changes the
// file's size and the sync is an fdatasync that journals no size change.
// It is not free of metadata: ext4 reserves the blocks as unwritten
// extents, the first write into each 4 KB block converts its extent, and
// the next fdatasync journals that conversion. On an ext4 volume of a
// 2-vCPU VM, 16 KB appends each followed by fdatasync had a p50 sync of
// 127–187 µs into a preallocated file against 63–93 µs into one already
// written with zeros; preallocation still pays against a file that grows
// on write (4000 × 420 B synced appends: 315–670 ms against 480–940 ms).
// Past its last record such a file reads as zeros:
// a zero length word at a record boundary is the segment's logical end,
// for recovery and the tailer alike. Rotation and Close
// seal a segment — flush, truncate to the logical size, sync, close —
// so sealed segments end with their last record; a crash in between
// leaves zeros there, which read as the same end.
//
// Open scans the segments in order, replays every intact record through
// the caller's callback, and cuts the last segment behind its last
// intact record — a crash mid-write tears at most the tail of the last
// segment, and by the invariant above nothing acknowledged lies behind
// the tear, even if a complete record does. Damage anywhere else (a CRC
// mismatch in the middle of the log) is not a torn write and fails Open
// with ErrCorrupt rather than silently dropping acknowledged records.
// Compact removes whole segments that a snapshot has made redundant.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vmshortcut/internal/obs"
	"vmshortcut/internal/op"
	"vmshortcut/internal/sys"
)

// The two syscalls of the commit path, as variables so that tests can
// fail, block or replace them.
var (
	fdatasync = sys.Fdatasync
	fallocate = sys.Fallocate
)

// maxSyncs is how many syncs may be in flight at once (see "Durability
// policies" for why two).
const maxSyncs = 2

// FsyncMode selects when appended records reach stable storage.
type FsyncMode int

const (
	// FsyncAlways syncs before AppendBatch returns (group-committed): an
	// acknowledged append survives any crash.
	FsyncAlways FsyncMode = iota
	// FsyncInterval syncs on a background ticker: a crash loses at most
	// the last interval's appends.
	FsyncInterval
	// FsyncOff never syncs explicitly (except on rotation and Close): a
	// crash loses whatever the OS had not written back.
	FsyncOff
)

var fsyncNames = [...]string{"always", "interval", "off"}

// String returns the mode's flag-style name.
func (m FsyncMode) String() string {
	if m < 0 || int(m) >= len(fsyncNames) {
		return fmt.Sprintf("FsyncMode(%d)", int(m))
	}
	return fsyncNames[m]
}

// ParseFsyncMode maps a flag-style name onto its FsyncMode.
func ParseFsyncMode(name string) (FsyncMode, error) {
	for i, n := range fsyncNames {
		if n == name {
			return FsyncMode(i), nil
		}
	}
	return 0, fmt.Errorf("wal: unknown fsync mode %q (want always, interval, or off)", name)
}

// Options tunes a Log. The zero value selects FsyncAlways, 64 MiB
// segments, and a 100 ms sync interval (used only by FsyncInterval).
type Options struct {
	// Mode is the fsync policy. Default FsyncAlways.
	Mode FsyncMode
	// Interval is the background sync period for FsyncInterval. Default
	// 100 ms.
	Interval time.Duration
	// SegmentBytes rotates the active segment when it would exceed this
	// size, and is what each new segment reserves on disk up front.
	// Default 64 MiB.
	SegmentBytes int64
	// FsyncHist, when set, records the duration of every sync the log
	// issues (commit leaders' syncs — two may overlap — and the seals of
	// rotation and Close) in nanoseconds. Nil disables recording at zero
	// cost.
	FsyncHist *obs.Hist
}

func (o *Options) fill() {
	if o.Interval <= 0 {
		o.Interval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: log closed")

// ReplayFunc receives one decoded record during Open as an operation
// batch — the same representation every other layer passes around. The
// batch is reused between calls: the callback must apply or copy it
// before returning. Returning an error aborts Open.
type ReplayFunc func(lsn uint64, b *op.Batch) error

// segment is one log file and what Open or appends learned about it.
type segment struct {
	path     string
	firstLSN uint64
	size     int64
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// LastLSN is the sequence number of the newest appended record (0
	// when the log is empty).
	LastLSN uint64
	// SyncedLSN is the highest LSN known to be on stable storage.
	SyncedLSN uint64
	// Syncs counts fsync calls issued since Open.
	Syncs uint64
	// Segments is the number of live segment files.
	Segments int
	// Bytes is the total size of the records in all live segments (the
	// active segment's file is larger: it is preallocated).
	Bytes int64
}

// Log is an append-only record log. All methods are safe for concurrent
// use.
type Log struct {
	dir  string
	opts Options

	mu      sync.Mutex
	f       sys.File // active segment
	bw      *bufio.Writer
	segs    []segment // in LSN order; the last one is active
	lastLSN uint64    // newest appended record
	err     error     // sticky I/O error; the log is dead once set
	closed  bool

	// pre is writeRecordLocked's record prefix, under mu: a local array
	// would move to the heap on every record, since bw.Write lets it go.
	pre [recordHeaderSize + payloadPrefixSize]byte

	// Tail-subscription wakeup (see tail.go). Appenders close-and-replace
	// wakeC after publishing a new lastLSN; the counter lets the
	// no-subscriber hot path skip the channel churn.
	tailers atomic.Int32
	wakeMu  sync.Mutex
	wakeC   chan struct{}

	// Commit state. A sync leader flushes under mu, then syncs OUTSIDE all
	// locks — so appends, and a second leader, proceed meanwhile — and
	// publishes the durable position; everyone else waits on the condition
	// variable. synced and syncErr are written under syncMu and read
	// without it (the append path checks syncErr on every record).
	syncMu   sync.Mutex
	syncC    *sync.Cond
	inflight int                   // leaders between claim and publish, ≤ maxSyncs
	flushing bool                  // a leader has claimed a slot and not flushed yet
	covered  uint64                // newest record flushed ahead of a leader's sync
	group    uint64                // how many records the latest such flush added
	synced   atomic.Uint64         // newest record known durable
	syncErr  atomic.Pointer[error] // sticky: a sync failed; nothing later is acked
	syncs    atomic.Uint64

	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{} // closed when the interval syncer exits
}

// segName formats the segment filename for its first LSN.
func segName(firstLSN uint64) string { return fmt.Sprintf("wal-%016x.log", firstLSN) }

// parseSegName extracts the first LSN from a segment filename.
func parseSegName(name string) (uint64, bool) {
	var lsn uint64
	if _, err := fmt.Sscanf(name, "wal-%016x.log", &lsn); err != nil {
		return 0, false
	}
	return lsn, true
}

// listSegments returns dir's segment files in LSN order.
func listSegments(dir string) ([]segment, error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range names {
		if lsn, ok := parseSegName(e.Name()); ok {
			segs = append(segs, segment{path: filepath.Join(dir, e.Name()), firstLSN: lsn})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// SyncDir fsyncs a directory so entry creation, removal, and renames
// inside it survive a crash. The log uses it around segment lifecycle;
// the snapshot layer shares it for publishing snapshot renames.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Open opens (creating if necessary) the log in dir, replays every intact
// record through replay (which may be nil), truncates a torn record at the
// tail of the last segment, and positions the log for appending. The
// caller filters replayed records by LSN when a snapshot already covers a
// prefix.
func Open(dir string, opts Options, replay ReplayFunc) (*Log, error) {
	opts.fill()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}

	l := &Log{dir: dir, opts: opts, stopc: make(chan struct{}), done: make(chan struct{}), wakeC: make(chan struct{})}
	l.syncC = sync.NewCond(&l.syncMu)
	for i := range segs {
		// LSNs must run contiguously across segment boundaries: rotation
		// names the next segment lastLSN+1, so a gap means a whole
		// segment of acknowledged records is missing (lost file, bad
		// restore) — refuse rather than silently serve a hole. The first
		// remaining segment is exempt: compaction legitimately removes
		// the prefix.
		if i > 0 && segs[i].firstLSN != l.lastLSN+1 {
			return nil, fmt.Errorf("%w: segment %s starts at LSN %d but the previous segment ends at %d",
				ErrCorrupt, filepath.Base(segs[i].path), segs[i].firstLSN, l.lastLSN)
		}
		final := i == len(segs)-1
		size, last, err := l.replaySegment(&segs[i], final, replay)
		if err != nil {
			return nil, err
		}
		segs[i].size = size
		if last > l.lastLSN {
			l.lastLSN = last
		}
		// A segment's name alone proves records < firstLSN once existed,
		// even when the segment replays empty (a crash between rotation
		// and the first flushed record, with the predecessors already
		// compacted). Without this floor the LSN counter would restart
		// below positions a snapshot may cover, and the reused LSNs
		// would be skipped — or truncated as torn — on the next
		// recovery.
		if segs[i].firstLSN > 0 && segs[i].firstLSN-1 > l.lastLSN {
			l.lastLSN = segs[i].firstLSN - 1
		}
	}
	l.segs = segs
	l.synced.Store(l.lastLSN) // everything replayed is on disk by definition

	if len(l.segs) == 0 {
		if err := l.openSegmentLocked(l.lastLSN + 1); err != nil {
			return nil, err
		}
	} else {
		// Cut the active segment to its validated records — dropping a
		// torn tail and whatever a crash left in the old preallocation, so
		// that everything past the write offset reads as zeros again —
		// and continue writing there.
		active := &l.segs[len(l.segs)-1]
		f, err := os.OpenFile(active.path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: opening active segment: %w", err)
		}
		if err = f.Truncate(active.size); err == nil {
			_, err = f.Seek(active.size, io.SeekStart)
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: repositioning active segment: %w", err)
		}
		l.setActiveLocked(f)
	}

	if opts.Mode == FsyncInterval {
		go l.intervalSyncer()
	} else {
		close(l.done)
	}
	return l, nil
}

// replaySegment scans one segment, feeding intact records to replay. It
// returns the validated size — where a torn record, forgiven only at the
// tail of the final segment, or the preallocated zeros begin — and the
// last LSN seen. A damaged record anywhere else fails with ErrCorrupt.
func (l *Log) replaySegment(seg *segment, final bool, replay ReplayFunc) (int64, uint64, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: opening %s: %w", seg.path, err)
	}
	defer f.Close()
	rd := recordReader{br: bufio.NewReaderSize(f, 1<<20)}
	var batch op.Batch // reused across records; ReplayFunc must not retain it
	lastLSN, expect := uint64(0), seg.firstLSN
	for {
		start := rd.off
		lsn, _, payload, err := rd.next()
		if err == nil && lsn != expect {
			err = fmt.Errorf("%w: LSN %d, expected %d", ErrCorrupt, lsn, expect)
		}
		if err == nil {
			_, _, err = decodeRecordPayload(payload, &batch)
		}
		switch {
		case err == io.EOF, final && errors.Is(err, ErrCorrupt):
			return start, lastLSN, nil // clean end, or a torn tail Open cuts off
		case err != nil:
			return 0, 0, fmt.Errorf("wal: segment %s: %w", filepath.Base(seg.path), err)
		}
		if replay != nil {
			if err := replay(lsn, &batch); err != nil {
				return 0, 0, fmt.Errorf("wal: replaying record %d: %w", lsn, err)
			}
		}
		lastLSN, expect = lsn, lsn+1
	}
}

// openSegmentLocked creates a fresh segment whose first record will be
// firstLSN and makes it the active one. Caller holds mu (or is Open).
func (l *Log) openSegmentLocked(firstLSN uint64) error {
	path := filepath.Join(l.dir, segName(firstLSN))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	l.segs = append(l.segs, segment{path: path, firstLSN: firstLSN})
	l.setActiveLocked(f)
	// After the preallocation, so that this one journal commit carries the
	// new size too and no later sync of the segment commits a size change.
	if err := SyncDir(l.dir); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing dir after segment create: %w", err)
	}
	return nil
}

// setActiveLocked makes f, positioned at the active segment's logical end,
// the file appends go to (and syncs reach through one RawConn), and
// preallocates the rest of the segment: writes below SegmentBytes then
// never move the file size, so a sync commits no size change (on ext4 it
// still journals the conversion of the unwritten extents the writes
// touched; see "Segments and recovery"). A filesystem that cannot
// (EOPNOTSUPP) or will not (ENOSPC) reserve leaves a segment that grows on
// write — as correct, but every sync then commits a size change.
func (l *Log) setActiveLocked(f *os.File) {
	l.f = sys.NewFile(f)
	_ = fallocate(l.f, l.opts.SegmentBytes)
	l.bw = bufio.NewWriterSize(f, 64<<10)
}

// sealLocked finishes the active segment: flush, cut the preallocated tail
// so the file ends with its last record, sync, close. Everything appended
// so far is then durable, which releases every waiter in syncTo; a failure
// is sticky like any failed sync. The outcome is published before the file
// is closed: a leader whose own sync then finds the file closed under it
// can tell from synced that its records are durable. Caller holds mu.
func (l *Log) sealLocked() error {
	err := l.bw.Flush()
	if err == nil {
		err = l.f.Truncate(l.segs[len(l.segs)-1].size)
	}
	if err == nil {
		err = l.syncFile(l.f)
	}
	l.syncMu.Lock()
	l.publishLocked(l.lastLSN, err)
	l.syncMu.Unlock()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// rotateLocked seals the active segment and opens its successor (create,
// preallocate, sync the directory). Caller holds mu.
func (l *Log) rotateLocked() error {
	if err := l.sealLocked(); err != nil {
		return err
	}
	return l.openSegmentLocked(l.lastLSN + 1)
}

// AppendBatch appends one record whose payload is an already-encoded
// batch payload in the internal/op layout, under its batch code (OpPut,
// OpDel, or OpMixed — a mixed payload may contain GET entries, which
// replay ignores), and returns the record's LSN. It is the log's only
// append path, and a zero-copy one: the bytes a batch frame arrived with
// are the bytes the log writes, with only the (lsn, code) prefix added —
// no re-encoding between the socket and the fsync. The payload must be
// structurally valid for its code (the wire layer's decode,
// op.Batch.Payload, or op.AppendPairsPayload/AppendKeysPayload guarantee
// that); its element count must be at most MaxRecordPairs. With
// FsyncAlways the record is on stable storage when AppendBatch returns.
func (l *Log) AppendBatch(code byte, payload []byte) (uint64, error) {
	if !validCode(code) {
		return 0, fmt.Errorf("wal: AppendBatch: invalid batch code 0x%02x", code)
	}
	if len(payload) < 4 {
		return 0, fmt.Errorf("wal: AppendBatch: payload %d bytes, need at least 4", len(payload))
	}
	if n := binary.LittleEndian.Uint32(payload); n > MaxRecordPairs {
		return 0, fmt.Errorf("wal: AppendBatch: %d elements exceeds max %d", n, MaxRecordPairs)
	}
	l.mu.Lock()
	if err := l.appendableLocked(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	lsn := l.lastLSN + 1
	if err := l.writeRecordLocked(lsn, code, payload); err != nil {
		l.err = err
		l.mu.Unlock()
		return 0, err
	}
	l.lastLSN = lsn
	l.mu.Unlock()
	l.wakeTailers()
	return lsn, l.maybeSync(lsn)
}

// appendableLocked reports whether the log can accept an append: not
// closed, no sticky write error, and no sticky sync error. Fail-stop
// applies to sync failures too: under FsyncInterval/FsyncOff nothing on
// the append path would otherwise ever consult syncErr, and the log
// would keep acknowledging writes forever on a disk that stopped syncing
// — unbounded loss instead of the documented one-interval window.
func (l *Log) appendableLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if serr := l.syncErr.Load(); serr != nil {
		return *serr
	}
	return nil
}

// writeRecordLocked streams one record — header, CRC, lsn, code, then
// the payload bytes as given — into the active segment, rotating first
// when it would overflow. The payload is written directly (one copy into
// the segment writer's buffer, no intermediate record buffer). Caller
// holds mu.
func (l *Log) writeRecordLocked(lsn uint64, code byte, payload []byte) error {
	// pre is everything before the payload: u32 len | u32 crc | u64 lsn |
	// u8 code. The CRC covers lsn, code, and payload ("everything after
	// the crc field"), computed incrementally so the payload is not
	// copied to be summed.
	pre := &l.pre
	payloadLen := payloadPrefixSize + len(payload)
	binary.LittleEndian.PutUint32(pre[0:], uint32(payloadLen))
	binary.LittleEndian.PutUint64(pre[8:], lsn)
	pre[16] = code
	crc := crc32.ChecksumIEEE(pre[8:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(pre[4:], crc)

	recLen := int64(recordHeaderSize + payloadLen)
	active := &l.segs[len(l.segs)-1]
	if active.size > 0 && active.size+recLen > l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
		active = &l.segs[len(l.segs)-1]
	}
	if _, err := l.bw.Write(pre[:]); err != nil {
		return err
	}
	if _, err := l.bw.Write(payload); err != nil {
		return err
	}
	active.size += recLen
	return nil
}

// maybeSync applies the configured sync policy after an append: under
// FsyncAlways it blocks until a sync covers lsn.
func (l *Log) maybeSync(lsn uint64) error {
	if l.opts.Mode != FsyncAlways {
		return nil
	}
	return l.syncTo(lsn)
}

// syncTo blocks until every record up to target is on stable storage. A
// caller waits only for a sync that covers its record: when one in flight
// flushed past target it waits for that; otherwise, unless maxSyncs are
// already running, it leads its own at once, beside the running one —
// flushing everything appended so far, not just its record, so whoever had
// to wait is swept up by the next leader's single sync. Two things keep
// that from splitting groups. A leader that has taken a slot but not
// flushed yet is about to cover every caller there is (target is always
// appended already), so nobody leads beside it until its flush is out: of
// several waiters woken by a freed slot, one syncs. And beside a running
// sync a caller leads only when the records waiting (target is the newest
// of them, or another caller will come) number at least those of the
// latest flush; fewer wait for more, or for the running sync to finish.
func (l *Log) syncTo(target uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for l.synced.Load() < target {
		if serr := l.syncErr.Load(); serr != nil {
			return *serr
		}
		if target <= l.covered || l.flushing || l.inflight == maxSyncs ||
			l.inflight > 0 && target-l.covered < l.group {
			l.syncC.Wait()
			continue
		}
		l.inflight++
		l.flushing = true
		l.syncMu.Unlock()
		cur, err := l.flushAndSync()
		l.syncMu.Lock()
		l.inflight--
		l.publishLocked(cur, err)
	}
	return nil
}

// flushAndSync is one leader's work: hand everything appended so far to
// the OS under mu and publish how far that covers, then sync outside every
// lock. It returns the newest record the sync made durable.
func (l *Log) flushAndSync() (uint64, error) {
	l.mu.Lock()
	if l.err == nil {
		l.err = l.bw.Flush()
	}
	err, cur, f := l.err, l.lastLSN, l.f
	l.syncMu.Lock() // still under mu: no append falls between the flush and its announcement
	l.flushing = false
	if err == nil {
		l.group, l.covered = cur-l.covered, cur
	}
	l.syncMu.Unlock()
	l.mu.Unlock()
	if err != nil {
		return 0, err
	}
	err = l.syncFile(f)
	if errors.Is(err, os.ErrClosed) && l.synced.Load() >= cur {
		// Lost a race with a seal (rotation, Close), which flushed, synced,
		// published and only then closed f under us: cur is durable.
		err = nil
	}
	return cur, err
}

// syncFile is the one place the log syncs a segment: fdatasync, timed into
// FsyncHist and counted in Stats.Syncs.
func (l *Log) syncFile(f sys.File) error {
	start := time.Now()
	err := fdatasync(f)
	l.opts.FsyncHist.RecordSince(start)
	if err == nil {
		l.syncs.Add(1)
	}
	return err
}

// publishLocked records the outcome of a sync that covered every record up
// to cur and wakes all waiters. A later sync may finish first, so synced
// only moves forward; the first error sticks, and nothing is published
// after it — not even by a sync that began earlier and came back clean.
// Caller holds syncMu.
func (l *Log) publishLocked(cur uint64, err error) {
	if err != nil {
		sticky := err // only a failed sync moves an error to the heap
		l.syncErr.CompareAndSwap(nil, &sticky)
	}
	if l.syncErr.Load() == nil && cur > l.synced.Load() {
		l.synced.Store(cur)
	}
	l.syncC.Broadcast()
}

// Sync forces everything appended so far onto stable storage, regardless
// of the configured policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	target := l.lastLSN
	l.mu.Unlock()
	if target == 0 {
		return nil
	}
	return l.syncTo(target)
}

// intervalSyncer is the FsyncInterval background goroutine. It exits —
// and signals done — when Close stops it.
func (l *Log) intervalSyncer() {
	defer close(l.done)
	ticker := time.NewTicker(l.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-ticker.C:
			l.Sync() // sticky l.err / syncErr preserve any failure
		}
	}
}

// LastLSN returns the newest appended record's sequence number.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// OldestLSN returns the lowest sequence number the log can still
// replay — the first segment's first LSN. Recovery uses it to detect a
// hole between a snapshot and the log: records after the snapshot's
// position but before OldestLSN exist nowhere.
func (l *Log) OldestLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[0].firstLSN
}

// Compact removes whole segments every record of which has LSN ≤ upTo —
// typically the position covered by a snapshot. The active segment is
// never removed. It returns how many segments were deleted.
func (l *Log) Compact(upTo uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	// A segment is redundant when its successor starts at or before
	// upTo+1: every record it holds is then ≤ upTo.
	for len(l.segs) > 1 && l.segs[1].firstLSN <= upTo+1 {
		if err := os.Remove(l.segs[0].path); err != nil {
			return removed, fmt.Errorf("wal: removing %s: %w", l.segs[0].path, err)
		}
		l.segs = l.segs[1:]
		removed++
	}
	if removed > 0 {
		if err := SyncDir(l.dir); err != nil {
			return removed, fmt.Errorf("wal: syncing dir after compact: %w", err)
		}
	}
	return removed, nil
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	st := Stats{
		LastLSN:  l.lastLSN,
		Segments: len(l.segs),
	}
	for _, s := range l.segs {
		st.Bytes += s.size
	}
	l.mu.Unlock()
	st.SyncedLSN = l.synced.Load()
	st.Syncs = l.syncs.Load()
	return st
}

// Close stops the background syncer (waiting for it to exit) and seals the
// active segment: a cleanly closed log's files hold exactly its records,
// all durable. Close is idempotent; appends after Close fail with
// ErrClosed.
func (l *Log) Close() error {
	l.stopOnce.Do(func() { close(l.stopc) })
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	err := l.appendableLocked()
	l.closed = true
	if err != nil {
		l.f.Close() // the log died earlier; report why, leave the files to recovery
		return err
	}
	return l.sealLocked()
}
