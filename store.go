package vmshortcut

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vmshortcut/internal/eh"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/op"
	"vmshortcut/internal/pool"
	"vmshortcut/internal/sceh"
)

// OpBatch is the serving stack's shared operation-batch representation
// (internal/op.Batch): an ordered mix of GET/PUT/DEL entries over
// contiguous storage. One OpBatch travels from the wire decode through
// the coalescer and the shard fan-out down to the WAL append without
// being re-packed. Build one with its Get/Put/Del methods, or let the
// wire layer decode a frame into it.
type OpBatch = op.Batch

// OpResults holds per-entry outcomes of an applied OpBatch
// (internal/op.Results): Found per entry, plus the value for GET hits.
type OpResults = op.Results

// Kind selects the index implementation behind Open. The paper's other
// baselines (HT, HTI, CH) are in-process competitors of the Figure 7
// runner only (internal/experiments), not Store kinds.
type Kind int

const (
	// KindEH is classical extendible hashing over pool pages.
	KindEH Kind = iota
	// KindShortcutEH is the paper's contribution: extendible hashing whose
	// directory is additionally expressed as a page-table shortcut.
	KindShortcutEH

	kindCount
)

var kindNames = [...]string{"eh", "shortcut-eh"}

// String returns the kind's canonical flag-style name.
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Kinds lists every openable kind in declaration order.
func Kinds() []Kind {
	out := make([]Kind, kindCount)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKind maps a flag-style name ("eh", "shortcut-eh") onto its Kind.
func ParseKind(name string) (Kind, error) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("vmshortcut: unknown index kind %q (want one of %v)", name, kindNames)
}

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("vmshortcut: store closed")

// Store is the uniform surface of every index kind: the Index operations,
// one mixed-batch call, one observability struct, and an idempotent
// lifecycle. Open is the only constructor.
//
// Unless the Store was opened with WithConcurrency, mutations must come
// from a single goroutine, mirroring the paper's single-writer model.
type Store interface {
	Index

	// ApplyBatch executes an ordered mixed-operation batch — the serving
	// stack's one shared representation (OpBatch) — writing per-entry
	// outcomes into res (sized and zeroed by the call): presence and
	// value for GET entries, presence for DEL entries, acceptance for PUT
	// entries. It is the only batch call: an all-PUT batch bulk-loads, an
	// all-GET batch probes many keys. Entries are applied in order, each
	// through the index's single operation; a concurrent store takes its
	// lock once for the whole batch, a sharded store splits the batch per
	// shard in one pass and fans large batches out across goroutines, and
	// a durable store appends ONE log record for the whole batch,
	// zero-copy from the batch's wire payload.
	//
	// A mixed batch fails as a unit: a non-nil error (a rejected insert,
	// a closed store, a log append failure) means the caller must treat
	// every entry as failed and acknowledge none of them — on a durable
	// store, entries may then have taken effect in memory without being
	// logged, exactly the unacknowledged one-batch window the WAL's
	// fail-stop contract already documents. Durable stores reject batches
	// larger than wal.MaxRecordPairs; the wire layer's frame bounds keep
	// served batches far below that.
	ApplyBatch(b *OpBatch, res *OpResults) error

	// Range calls fn for every stored (key, value) entry until fn returns
	// false. Iteration order is unspecified. fn must not mutate the store. Range
	// is a read: on a WithConcurrency store it holds the read lock for the
	// whole iteration, and on other stores it must not race mutations —
	// the snapshot layer (package persist) is its primary consumer.
	Range(fn func(key, value uint64) bool)

	// Stats snapshots the store's observability counters. Fields that do
	// not apply to the kind are zero-valued.
	Stats() Stats
	// WaitSync blocks until asynchronously maintained state (the shortcut
	// directory of KindShortcutEH) has caught up, or the timeout elapses.
	// KindEH has no asynchronous maintenance and is always in sync.
	WaitSync(timeout time.Duration) bool
	// Kind reports which implementation backs the store.
	Kind() Kind
	// Close releases the index and its page pool. It is
	// idempotent; operations after Close fail with ErrClosed (or report
	// "not found" where the signature has no error).
	Close() error
}

// Stats is the common observability struct of both kinds. Directory
// fields are populated for both; shortcut fields only for KindShortcutEH.
// Everything else is zero-valued, per kind, by design.
type Stats struct {
	Kind    Kind
	Entries int

	// Directory shape of the extendible-hashing table (both kinds).
	GlobalDepth    uint
	DirectorySlots int
	Buckets        int
	LoadFactor     float64
	AvgFanIn       float64
	// StructuralMods counts structure-changing events: bucket splits plus
	// directory doublings.
	StructuralMods uint64

	// Shortcut maintenance and routing (KindShortcutEH only).
	ShortcutLookups    uint64
	TraditionalLookups uint64
	UpdatesApplied     uint64
	CreatesApplied     uint64
	UpdatesSuperseded  uint64
	Remaps             uint64
	MapperFailures     uint64 // failed creates and updates (see sceh.Stats)
	TradVersion        uint64
	ShortcutVersion    uint64
	InSync             bool
	UsingShortcut      bool

	// Durability (stores opened with WithWAL; zero otherwise). WALRecords
	// and WALSyncs count appended log records and fsync calls, WALSegments
	// and WALBytes describe the live log, SnapshotLSN is the newest
	// snapshot's covered position, and DurableLSN is the highest log
	// position known to be on stable storage.
	WALRecords  uint64
	WALSyncs    uint64
	WALSegments int
	WALBytes    int64
	SnapshotLSN uint64
	DurableLSN  uint64

	// Batch counters at the Store surface (every kind): how many
	// multi-entry runs of consecutive GET, PUT and DEL entries the store's
	// ApplyBatch calls have carried (op.CountRuns; a lone entry between
	// entries of other kinds is no run). A sharded store counts each
	// caller-facing batch's runs once — the per-shard sub-batches of the
	// fan-out are not double counted. The network server's coalescer is
	// verified through these: pipelined requests must reach the store as
	// batches, not single ops.
	InsertBatches uint64
	LookupBatches uint64
	DeleteBatches uint64

	// Read fast path (WithConcurrency stores; summed across shards). The
	// two Fastpath counters partition GET entries by how they were
	// served: by a seqlock-validated lock-free read, or under the read
	// lock. SeqlockRetries counts optimistic passes discarded because a
	// writer moved the sequence counter mid-read; SeqlockFallbacks counts
	// batches that exhausted their retries and took the lock.
	FastpathSeqlockReads uint64
	FastpathLockedReads  uint64
	SeqlockRetries       uint64
	SeqlockFallbacks     uint64

	// FastpathCacheReads is always 0: the hot-key read cache it counted is
	// gone. It stays only because the repository benchmark
	// (benchmark/traced.go) still reads it.
	FastpathCacheReads uint64
}

// storeOptions collects the functional options; zero values defer to each
// implementation's defaults.
type storeOptions struct {
	err error // first invalid option, reported by Open

	capacity     int
	pollInterval time.Duration
	concurrent   bool
	shards       int

	// Durability (durable.go): set via WithWAL and friends; ignored
	// entirely when walDir is empty.
	walDir          string
	fsyncMode       FsyncMode
	fsyncInterval   time.Duration
	snapshotEvery   int
	walSegmentBytes int64
	fsyncHist       *obs.Hist
}

// Option configures Open. Options that do not apply to the chosen kind are
// ignored, so one option set can drive both kinds.
type Option func(*storeOptions)

func (o *storeOptions) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
	}
}

// WithCapacity pre-sizes the index for n entries, like make(map, n): it
// derives the directory's initial global depth and the page pool's
// budget.
func WithCapacity(n int) Option {
	return func(o *storeOptions) {
		if n <= 0 {
			o.fail("vmshortcut: WithCapacity(%d): must be positive", n)
			return
		}
		o.capacity = n
	}
}

// WithPollInterval sets the mapper thread's tick (KindShortcutEH), which
// bounds how long readers see a stale shortcut; with no reader the mapper
// parks. Default DefaultPollInterval (25ms, paper §4.1).
func WithPollInterval(d time.Duration) Option {
	return func(o *storeOptions) {
		if d <= 0 {
			o.fail("vmshortcut: WithPollInterval(%v): must be positive", d)
			return
		}
		o.pollInterval = d
	}
}

// WithConcurrency makes the store safe for concurrent use, including a
// Close racing in-flight operations: a readers-writer lock admits parallel
// lookups and exclusive mutation.
//
// One lock still serializes all writers. To scale mutation across cores,
// combine with WithShards: the keyspace is then hash-partitioned across
// independent sub-stores and the single lock becomes one stripe per shard.
func WithConcurrency(on bool) Option {
	return func(o *storeOptions) { o.concurrent = on }
}

// WithShards hash-partitions the keyspace across n independent sub-stores,
// each with its own lock stripe and its own page pool, so writers to
// different shards proceed in parallel instead of serializing on
// WithConcurrency's single lock. Single
// operations route by key hash; ApplyBatch splits the batch by shard in
// one pass and fans the per-shard sub-batches out across goroutines.
// Stats aggregates across shards, WaitSync and Close fan out and drain.
//
// n > 1 implies WithConcurrency: the sharded store is always safe for
// concurrent use. n = 1 (the default) keeps today's single-store
// semantics. A WithCapacity hint is divided across the shards so the total
// stays what was asked for.
func WithShards(n int) Option {
	return func(o *storeOptions) {
		if n <= 0 {
			o.fail("vmshortcut: WithShards(%d): must be positive", n)
			return
		}
		o.shards = n
	}
}

// rangeIndex is what a store serves its single operations through: the
// table, or the lock wrapper around it.
type rangeIndex interface {
	Index
	Range(fn func(key, value uint64) bool)
}

// table is the contract both index implementations (eh and sceh) satisfy
// natively: the single operations plus LookupRun, which looks up a run of
// keys in one call — for Shortcut-EH with one routing decision and one
// counter update. The store wrapper adds lifecycle and observability on
// top.
type table interface {
	rangeIndex
	LookupRun(keys, vals []uint64, found []bool)
}

// applyEntries executes a mixed batch against a table in order, writing
// each outcome straight into res at the entry's position: a run of
// consecutive GETs through one LookupRun, every PUT and DEL through the
// table's single operation. It returns the first insert error; later
// entries still execute, but per the ApplyBatch contract the whole batch
// then fails as a unit.
func applyEntries(t table, b *op.Batch, res *op.Results) (firstErr error) {
	kinds, keys, vals := b.Kinds(), b.Keys(), b.Vals()
	res.Reset(len(kinds))
	for i := 0; i < len(kinds); i++ {
		switch kinds[i] {
		case op.Get:
			j := i + 1
			for j < len(kinds) && kinds[j] == op.Get {
				j++
			}
			t.LookupRun(keys[i:j], res.Vals[i:j], res.Found[i:j])
			i = j - 1
		case op.Put:
			if err := t.Insert(keys[i], vals[i]); err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				res.Found[i] = true
			}
		case op.Del:
			res.Found[i] = t.Delete(keys[i])
		}
	}
	return firstErr
}

// ehConfig assembles the extendible-hashing config shared by both kinds.
func (o *storeOptions) ehConfig() eh.Config {
	var cfg eh.Config
	if o.capacity > 0 {
		// Buckets needed at the split threshold, rounded up to a power of
		// two of directory slots.
		buckets := (o.capacity + eh.MaxFill - 1) / eh.MaxFill
		cfg.InitialGlobalDepth = uint(bits.Len(uint(buckets - 1)))
	}
	return cfg
}

// newPool creates the page pool a store owns, sized from the capacity
// hint when one was given.
func (o *storeOptions) newPool() (*Pool, error) {
	var cfg PoolConfig
	if o.capacity > 0 {
		// ≈ capacity/32 pages of buckets at the 0.35 load factor, with
		// headroom for splits in flight and shortcut areas.
		pages := o.capacity/32 + (1 << 12)
		cfg = PoolConfig{GrowChunkPages: 1 << 10, MaxPages: pages * 4}
	}
	return pool.New(cfg)
}

// Open constructs the index kind behind the uniform Store surface. Each
// store creates and owns its page pool, so Open(KindShortcutEH) works with
// no further setup.
// WithShards(n) with n > 1 returns a sharded store: n independent
// sub-stores with the keyspace hash-partitioned across them.
func Open(kind Kind, opts ...Option) (Store, error) {
	var o storeOptions
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	if o.err != nil {
		return nil, o.err
	}
	if kind < 0 || kind >= kindCount {
		return nil, fmt.Errorf("vmshortcut: unknown index kind %d", int(kind))
	}
	var (
		base Store
		err  error
	)
	if o.shards > 1 {
		base, err = openSharded(kind, &o)
	} else {
		base, err = openStore(kind, &o)
	}
	if err != nil {
		return nil, err
	}
	if o.walDir != "" {
		// WithWAL: recover the keyspace from disk into the fresh store,
		// then serve through the durable wrapper.
		return openDurable(base, &o)
	}
	return base, nil
}

// openStore builds one (unsharded) store from validated options — the
// construction path of every shard and of an Open without WithShards.
func openStore(kind Kind, o *storeOptions) (*store, error) {
	p, err := o.newPool()
	if err != nil {
		return nil, fmt.Errorf("vmshortcut: opening %s: %w", kind, err)
	}
	s := &store{kind: kind, pool: p}
	// On any construction failure below, give back the pool.
	fail := func(err error) (*store, error) {
		p.Close()
		return nil, fmt.Errorf("vmshortcut: opening %s: %w", kind, err)
	}

	switch kind {
	case KindEH:
		t, err := eh.New(p, o.ehConfig())
		if err != nil {
			return fail(err)
		}
		s.tbl = t
		s.eh = t

	case KindShortcutEH:
		cfg := sceh.Config{EH: o.ehConfig(), PollInterval: o.pollInterval}
		t, err := sceh.New(p, cfg)
		if err != nil {
			return fail(err)
		}
		s.tbl = t
		s.eh = t.EH()
		s.sc = t
	}
	s.idx = s.tbl

	// Concurrency: both kinds share one readers-writer wrapper that also
	// owns the closed flag, so Close drains in-flight operations before
	// releasing the underlying memory. Reads stay parallel: both kinds'
	// lookups are pure (Shortcut-EH's only touch atomics).
	if o.concurrent {
		s.lck = &lockedIndex{idx: s.tbl}
		s.idx = s.lck
	}
	return s, nil
}

// tableStats reads the shape of the extendible-hashing table and, for
// KindShortcutEH, the shortcut's maintenance and routing counters.
func (s *store) tableStats() Stats {
	ms := s.eh.Stats()
	st := Stats{
		Kind:           s.kind,
		Entries:        ms.Entries,
		GlobalDepth:    ms.GlobalDepth,
		DirectorySlots: ms.DirectorySlots,
		Buckets:        ms.Buckets,
		LoadFactor:     ms.LoadFactor,
		AvgFanIn:       ms.AvgFanIn,
		StructuralMods: ms.StructuralMods,
	}
	if t := s.sc; t != nil {
		sc := t.Stats()
		st.ShortcutLookups = sc.ShortcutLookups
		st.TraditionalLookups = sc.TraditionalLookups
		st.UpdatesApplied = sc.UpdatesApplied
		st.CreatesApplied = sc.CreatesApplied
		st.UpdatesSuperseded = sc.UpdatesSuperseded
		st.Remaps = sc.Remaps
		st.MapperFailures = sc.MapperFailures
		st.TradVersion = t.TradVersion()
		st.ShortcutVersion = t.ShortcutVersion()
		st.InSync = t.InSync()
		st.UsingShortcut = t.UsingShortcut()
	}
	return st
}

// lockedIndex serializes a table for WithConcurrency. Reads take the
// shared lock, and ApplyBatch takes the lock once per batch.
// It also owns the authoritative closed check: the flag is read under the
// lock, so close() cannot release the underlying memory while an
// operation is mid-flight.
//
// On top of the lock it layers the pure-GET seqlock fast path. seq is a
// seqlock sequence counter: every mutating path bumps it entering and
// leaving the write critical section (odd = writer inside), so a
// lock-free reader can validate that nothing changed around its pass
// and discard the result otherwise. Optimistic readers register in
// optReaders before touching index memory; only close() waits on that
// count, so writers never block behind readers but pages are never
// unmapped under one.
type lockedIndex struct {
	mu     sync.RWMutex
	idx    table
	closed bool

	seq        atomic.Uint64
	optReaders atomic.Int64
	closedA    atomic.Bool

	// Fast-path accounting, surfaced through Stats.
	seqlockReads atomic.Uint64
	lockedGets   atomic.Uint64
	seqRetries   atomic.Uint64
	seqFallbacks atomic.Uint64
}

func (l *lockedIndex) fillFastpath(st *Stats) {
	st.FastpathSeqlockReads = l.seqlockReads.Load()
	st.FastpathLockedReads = l.lockedGets.Load()
	st.SeqlockRetries = l.seqRetries.Load()
	st.SeqlockFallbacks = l.seqFallbacks.Load()
}

// beginWrite and endWrite bracket every mutating critical section: the
// write lock plus the seqlock bumps (odd on entry, even on exit) that
// invalidate in-flight optimistic readers.
func (l *lockedIndex) beginWrite() {
	l.mu.Lock()
	l.seq.Add(1)
}

func (l *lockedIndex) endWrite() {
	l.seq.Add(1)
	l.mu.Unlock()
}

// close marks the index closed and runs release while holding the write
// lock, after every in-flight operation has drained.
func (l *lockedIndex) close(release func() error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.closedA.Store(true)
	l.seq.Add(1) // leave the counter odd: no optimistic read validates again
	// Drain optimistic readers already past their closed check — they
	// hold no lock, so this wait is what keeps release() from unmapping
	// pages under a racing lock-free read. A reader registers before
	// checking closedA, so one that slipped past the check is visible
	// here, and later ones see closedA and bail immediately.
	for l.optReaders.Load() != 0 {
		runtime.Gosched()
	}
	return release()
}

func (l *lockedIndex) Insert(key, value uint64) error {
	l.beginWrite()
	defer l.endWrite()
	if l.closed {
		return ErrClosed
	}
	return l.idx.Insert(key, value)
}

func (l *lockedIndex) Lookup(key uint64) (uint64, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return 0, false
	}
	return l.idx.Lookup(key)
}

func (l *lockedIndex) Delete(key uint64) bool {
	l.beginWrite()
	defer l.endWrite()
	if l.closed {
		return false
	}
	return l.idx.Delete(key)
}

func (l *lockedIndex) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return 0
	}
	return l.idx.Len()
}

// applyBatch executes a mixed batch under ONE lock acquisition — the
// write lock when the batch mutates, the read lock for a pure-GET batch —
// so a coalesced pipeline round pays one lock, not one per kind switch. A
// pure-GET batch first attempts a lock-free seqlock pass (seqlockGets) and
// only falls back to the read lock when that pass cannot validate. Plain
// builds only: the race detector would flag the pass's unsynchronized
// reads, so -race builds always take the lock.
func (l *lockedIndex) applyBatch(b *op.Batch, res *op.Results) error {
	pureGet := b.Mutations() == 0
	if pureGet && b.Len() > 0 && !raceEnabled {
		if l.seqlockGets(b.Keys(), res) {
			return nil
		}
	}
	if !pureGet {
		l.beginWrite()
		defer l.endWrite()
	} else {
		l.mu.RLock()
		defer l.mu.RUnlock()
	}
	if l.closed {
		res.Reset(b.Len())
		return ErrClosed
	}
	err := applyEntries(l.idx, b, res)
	if pureGet {
		l.lockedGets.Add(uint64(b.Len())) // GET entries served under the lock
	}
	return err
}

// seqlockRetries is how many discarded optimistic passes a pure-GET
// batch tolerates before giving up and taking the read lock.
const seqlockRetries = 3

// seqlockGets serves a pure-GET batch without taking the lock: an
// optimistic pass reads the index lock-free and is kept only if the
// sequence counter says no writer overlapped it. After seqlockRetries
// failed validations it reports false and the caller takes the lock.
func (l *lockedIndex) seqlockGets(keys []uint64, res *op.Results) bool {
	// Register before the closed check: close() sets closedA, then waits
	// for this count to drain before releasing index memory, so a reader
	// that saw closedA false is covered by that wait.
	l.optReaders.Add(1)
	defer l.optReaders.Add(-1)
	if l.closedA.Load() {
		return false
	}
	for attempt := 0; attempt <= seqlockRetries; attempt++ {
		s := l.seq.Load()
		if s&1 != 0 {
			runtime.Gosched() // writer inside; yield rather than spin
			continue
		}
		if l.optimisticPass(keys, res) && l.seq.Load() == s {
			l.seqlockReads.Add(uint64(len(keys)))
			return true
		}
		l.seqRetries.Add(1)
	}
	l.seqFallbacks.Add(1)
	return false
}

// optimisticPass reads the keys from the table, as one run, without any lock,
// protected only by the caller's seqlock validation. A writer racing the
// pass can expose a mid-rebuild index (a grown table's slices mid-swap),
// so an out-of-range panic from a torn read is absorbed and reported as
// !ok; the caller discards the results either way, because the sequence
// counter has moved.
func (l *lockedIndex) optimisticPass(keys []uint64, res *op.Results) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	res.Reset(len(keys))
	l.idx.LookupRun(keys, res.Vals, res.Found)
	return true
}

func (l *lockedIndex) Range(fn func(key, value uint64) bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if l.closed {
		return
	}
	l.idx.Range(fn)
}

// store implements Store over one extendible-hashing table, which for
// KindShortcutEH sits inside a Shortcut-EH table.
type store struct {
	kind Kind
	tbl  table
	idx  rangeIndex // tbl, behind lck when set
	eh   *eh.Table
	sc   *sceh.Table // nil for KindEH
	pool *Pool
	lck  *lockedIndex // set with WithConcurrency; owns close ordering

	// runs counts the same-kind runs of the batches ApplyBatch received,
	// surfaced through Stats. A shard (shard set) counts none: its
	// sharded parent counts the caller's batches instead.
	runs  batchRuns
	shard bool

	closeMu sync.Mutex
	closed  atomic.Bool
}

func (s *store) Kind() Kind { return s.kind }

func (s *store) Insert(key, value uint64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	return s.idx.Insert(key, value)
}

func (s *store) Lookup(key uint64) (uint64, bool) {
	if s.closed.Load() {
		return 0, false
	}
	return s.idx.Lookup(key)
}

func (s *store) Delete(key uint64) bool {
	if s.closed.Load() {
		return false
	}
	return s.idx.Delete(key)
}

func (s *store) Len() int {
	if s.closed.Load() {
		return 0
	}
	return s.idx.Len()
}

func (s *store) ApplyBatch(b *op.Batch, res *op.Results) error {
	if s.closed.Load() {
		res.Reset(b.Len())
		return ErrClosed
	}
	if !s.shard {
		s.runs.add(b.Kinds())
	}
	if s.lck != nil {
		return s.lck.applyBatch(b, res)
	}
	return applyEntries(s.tbl, b, res)
}

func (s *store) Range(fn func(key, value uint64) bool) {
	if s.closed.Load() {
		return
	}
	s.idx.Range(fn)
}

func (s *store) Stats() Stats {
	if s.closed.Load() {
		return Stats{Kind: s.kind}
	}
	var st Stats
	if l := s.lck; l != nil {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return Stats{Kind: s.kind}
		}
		st = s.tableStats()
		l.fillFastpath(&st)
		l.mu.Unlock()
	} else {
		st = s.tableStats()
	}
	s.runs.fill(&st)
	return st
}

func (s *store) WaitSync(timeout time.Duration) bool {
	if s.closed.Load() {
		return false
	}
	if s.sc == nil {
		return true
	}
	return s.sc.WaitSync(timeout)
}

// Close releases the index and its page pool.
// Calling it again is a no-op returning nil. On a WithConcurrency store
// the release runs under the wrapper's write lock, after in-flight
// operations have drained.
func (s *store) Close() error {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.closed.Load() {
		return nil
	}
	s.closed.Store(true)
	release := func() error {
		var firstErr error
		if s.sc != nil {
			firstErr = s.sc.Close()
		}
		if err := s.pool.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		return firstErr
	}
	if s.lck != nil {
		return s.lck.close(release)
	}
	return release()
}

// batchRuns counts the multi-entry runs of consecutive GET, PUT and DEL
// entries (op.CountRuns) of the batches a store received: Stats'
// LookupBatches, InsertBatches and DeleteBatches. Atomics, so concurrent
// stores count without widening any lock's critical section.
type batchRuns struct {
	get, put, del atomic.Uint64
}

// add counts one batch's runs, skipping the kinds it has none of.
func (r *batchRuns) add(kinds []op.Kind) {
	runs := op.CountRuns(kinds)
	for k, c := range [...]*atomic.Uint64{op.Get: &r.get, op.Put: &r.put, op.Del: &r.del} {
		if runs[k] > 0 {
			c.Add(runs[k])
		}
	}
}

func (r *batchRuns) fill(st *Stats) {
	st.LookupBatches = r.get.Load()
	st.InsertBatches = r.put.Load()
	st.DeleteBatches = r.del.Load()
}
