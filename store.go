package vmshortcut

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vmshortcut/internal/ch"
	"vmshortcut/internal/eh"
	"vmshortcut/internal/ht"
	"vmshortcut/internal/hti"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/op"
	"vmshortcut/internal/pool"
	"vmshortcut/internal/radix"
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

// Kind selects the index implementation behind Open.
type Kind int

const (
	// KindHT is the open-addressing hash table with a full doubling rehash.
	KindHT Kind = iota
	// KindHTI is the Redis-style incrementally rehashing table.
	KindHTI
	// KindCH is chained hashing over a fixed-size directory.
	KindCH
	// KindEH is classical extendible hashing over pool pages.
	KindEH
	// KindShortcutEH is the paper's contribution: extendible hashing whose
	// directory is additionally expressed as a page-table shortcut.
	KindShortcutEH
	// KindRadix is the sparse direct-mapped shortcut index over a bounded
	// key space; it requires WithCapacity.
	KindRadix

	kindCount
)

var kindNames = [...]string{"ht", "hti", "ch", "eh", "shortcut-eh", "radix"}

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

// ParseKind maps a flag-style name ("ht", "hti", "ch", "eh", "shortcut-eh",
// "radix") onto its Kind.
func ParseKind(name string) (Kind, error) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("vmshortcut: unknown index kind %q", name)
}

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("vmshortcut: store closed")

// Store is the uniform surface of every index kind: the Index operations,
// batch variants that amortize per-call overhead, one observability struct,
// and an idempotent lifecycle. Open is the only constructor.
//
// Unless the Store was opened with WithConcurrency, mutations must come
// from a single goroutine, mirroring the paper's single-writer model.
type Store interface {
	Index

	// InsertBatch upserts every (keys[i], values[i]) pair; len(keys) must
	// equal len(values).
	InsertBatch(keys, values []uint64) error
	// LookupBatch looks up every key, writing values into out — which must
	// have length at least len(keys) — and returns per-key presence.
	LookupBatch(keys []uint64, out []uint64) []bool
	// DeleteBatch removes every key and returns per-key presence, so the
	// delete path is symmetric with insert/lookup for batch-shaped callers
	// (the network server's pipelined DEL path).
	DeleteBatch(keys []uint64) []bool

	// ApplyBatch executes an ordered mixed-operation batch — the serving
	// stack's one shared representation (OpBatch) — writing per-entry
	// outcomes into res (sized and zeroed by the call): presence and
	// value for GET entries, presence for DEL entries, acceptance for PUT
	// entries. Entries are applied in order (maximal same-kind runs go
	// through the native batch paths, so a uniform batch is exactly an
	// InsertBatch/LookupBatch/DeleteBatch — and counts in the same Stats
	// counters), a concurrent store takes its lock once for the whole
	// batch, a sharded store splits the batch per shard in one pass, and
	// a durable store appends ONE log record for the whole batch,
	// zero-copy from the batch's wire payload.
	//
	// A mixed batch fails as a unit: a non-nil error (a rejected insert,
	// a closed store, a log append failure) means the caller must treat
	// every entry as failed and acknowledge none of them — on a durable
	// store, entries may then have taken effect in memory without being
	// logged, exactly the unacknowledged one-batch window the WAL's
	// fail-stop contract already documents. Batches larger than
	// wal.MaxRecordPairs may be rejected by durable stores; the wire
	// layer's frame bounds keep served batches far below that.
	ApplyBatch(b *OpBatch, res *OpResults) error

	// Range calls fn for every stored (key, value) entry until fn returns
	// false. Iteration order is unspecified (KindRadix iterates in key
	// order; the hash kinds do not). fn must not mutate the store. Range
	// is a read: on a WithConcurrency store it holds the read lock for the
	// whole iteration, and on other stores it must not race mutations —
	// the snapshot layer (package persist) is its primary consumer.
	Range(fn func(key, value uint64) bool)

	// Stats snapshots the store's observability counters. Fields that do
	// not apply to the kind are zero-valued.
	Stats() Stats
	// WaitSync blocks until asynchronously maintained state (the shortcut
	// directory of KindShortcutEH) has caught up, or the timeout elapses.
	// Kinds without asynchronous maintenance are always in sync.
	WaitSync(timeout time.Duration) bool
	// Kind reports which implementation backs the store.
	Kind() Kind
	// Close releases the index and any pool Open created for it. It is
	// idempotent; operations after Close fail with ErrClosed (or report
	// "not found" where the signature has no error).
	Close() error
}

// Stats is the common observability struct of all kinds. Directory fields
// are populated for the EH-backed kinds (and, reinterpreted, for
// KindRadix); shortcut fields only for KindShortcutEH. Everything else is
// zero-valued, per kind, by design.
type Stats struct {
	Kind    Kind
	Entries int

	// Directory shape (KindEH, KindShortcutEH; for KindRadix
	// DirectorySlots is the inner node's fan-out and Buckets the live leaf
	// count; for KindCH DirectorySlots is the slot array and Buckets the
	// overflow-bucket count).
	GlobalDepth    uint
	DirectorySlots int
	Buckets        int
	LoadFactor     float64
	AvgFanIn       float64
	// StructuralMods counts structure-changing events: splits + doublings
	// (+ merges + halvings) for the EH kinds, rehashes for KindHT, resizes
	// for KindHTI, leaf allocations + frees for KindRadix.
	StructuralMods uint64

	// Shortcut maintenance and routing (KindShortcutEH only).
	ShortcutLookups    uint64
	TraditionalLookups uint64
	UpdatesApplied     uint64
	CreatesApplied     uint64
	UpdatesSuperseded  uint64
	Remaps             uint64
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

	// Batch-operation counters at the Store surface (every kind): how many
	// InsertBatch/LookupBatch/DeleteBatch calls this store has served. A
	// sharded store counts each caller-facing batch once — the per-shard
	// sub-batches of the fan-out are not double counted. The network
	// server's coalescer is verified through these: pipelined requests must
	// reach the store as batches, not single ops.
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

	pool            *Pool
	poolCfg         PoolConfig
	capacity        int
	maxLoadFactor   float64
	tableBytes      int
	migrationBatch  int
	initialGD       uint
	initialGDSet    bool
	mergeLoadFactor float64
	pollInterval    time.Duration
	fanInThreshold  float64
	adaptiveRouting bool
	synchronous     bool
	disableShortcut bool
	concurrent      bool
	shards          int
	seqlockHist     *obs.Hist

	// Durability (durable.go): set via WithWAL and friends; ignored
	// entirely when walDir is empty.
	walDir          string
	fsyncMode       FsyncMode
	fsyncInterval   time.Duration
	snapshotEvery   int
	walSegmentBytes int64
	chainedWAL      bool
	fsyncHist       *obs.Hist
	lsnTraces       *obs.LSNTraces
}

// Option configures Open. Options that do not apply to the chosen kind are
// ignored, so one option set can drive a sweep over several kinds.
type Option func(*storeOptions)

func (o *storeOptions) fail(format string, args ...any) {
	if o.err == nil {
		o.err = fmt.Errorf(format, args...)
	}
}

// WithPool injects the physical page pool backing the index (KindEH,
// KindShortcutEH, KindRadix). The caller keeps ownership: Close does not
// close an injected pool. Without this option, Open creates and owns a
// pool whenever the kind needs one.
func WithPool(p *Pool) Option {
	return func(o *storeOptions) {
		if p == nil {
			o.fail("vmshortcut: WithPool(nil)")
			return
		}
		o.pool = p
	}
}

// WithPoolConfig tunes the pool Open auto-creates. Ignored when WithPool
// injects one.
func WithPoolConfig(cfg PoolConfig) Option {
	return func(o *storeOptions) { o.poolCfg = cfg }
}

// WithCapacity pre-sizes the index for n entries, like make(map, n):
// initial table bytes for KindHT/KindHTI, directory bytes for KindCH,
// initial global depth for the EH kinds, and the auto-created pool's page
// budget. For KindRadix, n is the exclusive key-space bound and is
// required.
func WithCapacity(n int) Option {
	return func(o *storeOptions) {
		if n <= 0 {
			o.fail("vmshortcut: WithCapacity(%d): must be positive", n)
			return
		}
		o.capacity = n
	}
}

// WithMaxLoadFactor sets the occupancy threshold that triggers growth
// (KindHT, KindHTI) or bucket splits (KindEH, KindShortcutEH). Default
// 0.35, the paper's parameter.
func WithMaxLoadFactor(f float64) Option {
	return func(o *storeOptions) {
		if f <= 0 || f >= 1 {
			o.fail("vmshortcut: WithMaxLoadFactor(%v): need 0 < f < 1", f)
			return
		}
		o.maxLoadFactor = f
	}
}

// WithTableBytes fixes KindCH's directory size (the paper grants CH 1 GB).
func WithTableBytes(n int) Option {
	return func(o *storeOptions) {
		if n <= 0 {
			o.fail("vmshortcut: WithTableBytes(%d): must be positive", n)
			return
		}
		o.tableBytes = n
	}
}

// WithMigrationBatch sets how many entries KindHTI migrates per access
// while a resize is in progress. Default 64.
func WithMigrationBatch(n int) Option {
	return func(o *storeOptions) {
		if n <= 0 {
			o.fail("vmshortcut: WithMigrationBatch(%d): must be positive", n)
			return
		}
		o.migrationBatch = n
	}
}

// WithInitialGlobalDepth pre-sizes the EH directory (KindEH,
// KindShortcutEH); it takes precedence over the depth WithCapacity derives.
func WithInitialGlobalDepth(d uint) Option {
	return func(o *storeOptions) {
		o.initialGD = d
		o.initialGDSet = true
	}
}

// WithMergeLoadFactor enables bucket coalescing on delete for the EH kinds
// (0, the default, matches the paper's no-merge prototype).
func WithMergeLoadFactor(f float64) Option {
	return func(o *storeOptions) {
		if f < 0 || f >= 1 {
			o.fail("vmshortcut: WithMergeLoadFactor(%v): need 0 <= f < 1", f)
			return
		}
		o.mergeLoadFactor = f
	}
}

// WithPollInterval sets the mapper thread's queue polling frequency
// (KindShortcutEH). Default DefaultPollInterval (25ms, paper §4.1).
func WithPollInterval(d time.Duration) Option {
	return func(o *storeOptions) {
		if d <= 0 {
			o.fail("vmshortcut: WithPollInterval(%v): must be positive", d)
			return
		}
		o.pollInterval = d
	}
}

// WithFanInThreshold routes KindShortcutEH lookups through the shortcut
// only while the average directory fan-in is at most f. Default 8.
func WithFanInThreshold(f float64) Option {
	return func(o *storeOptions) {
		if f <= 0 {
			o.fail("vmshortcut: WithFanInThreshold(%v): must be positive", f)
			return
		}
		o.fanInThreshold = f
	}
}

// WithAdaptiveRouting replaces KindShortcutEH's fixed fan-in threshold
// with online measurement of both access paths.
func WithAdaptiveRouting(on bool) Option {
	return func(o *storeOptions) { o.adaptiveRouting = on }
}

// WithSynchronousMaintenance applies KindShortcutEH's shortcut maintenance
// on the writer goroutine instead of the mapper thread (ablations only).
func WithSynchronousMaintenance(on bool) Option {
	return func(o *storeOptions) { o.synchronous = on }
}

// WithDisableShortcut routes every read through the traditional pointer
// path (KindShortcutEH, KindRadix; ablations and baselines).
func WithDisableShortcut(on bool) Option {
	return func(o *storeOptions) { o.disableShortcut = on }
}

// WithConcurrency makes the store safe for concurrent use, including a
// Close racing in-flight operations: a readers-writer lock admits parallel
// lookups (exclusive mutation) for every kind whose reads are pure;
// KindHTI's reads migrate entries and therefore serialize fully.
//
// One lock still serializes all writers. To scale mutation across cores,
// combine with WithShards: the keyspace is then hash-partitioned across
// independent sub-stores and the single lock becomes one stripe per shard.
func WithConcurrency(on bool) Option {
	return func(o *storeOptions) { o.concurrent = on }
}

// WithSeqlockRetryHist records, for every optimistic pure-GET read that
// succeeded, how many seqlock validation retries it needed (0 = clean
// first pass). Applies to WithConcurrency stores on read-safe kinds; a
// sharded store records every shard into the same histogram.
func WithSeqlockRetryHist(h *obs.Hist) Option {
	return func(o *storeOptions) { o.seqlockHist = h }
}

// WithShards hash-partitions the keyspace across n independent sub-stores,
// each with its own lock stripe and (unless WithPool injects a shared one)
// its own page pool, so writers to different shards proceed in parallel
// instead of serializing on WithConcurrency's single lock. Single
// operations route by key hash; InsertBatch/LookupBatch split the batch by
// shard and fan the per-shard sub-batches out across goroutines, so
// Shortcut-EH's once-per-batch routing decision is preserved per shard.
// Stats aggregates across shards, WaitSync and Close fan out and drain.
//
// n > 1 implies WithConcurrency: the sharded store is always safe for
// concurrent use. n = 1 (the default) keeps today's single-store
// semantics. Explicit size budgets — WithCapacity, WithTableBytes,
// WithPoolConfig's page counts, WithInitialGlobalDepth's pre-sized
// directory — are divided across the shards so the total stays what was
// asked for; the exception is KindRadix, where WithCapacity bounds the
// keyspace and every shard keeps the full bound.
func WithShards(n int) Option {
	return func(o *storeOptions) {
		if n <= 0 {
			o.fail("vmshortcut: WithShards(%d): must be positive", n)
			return
		}
		o.shards = n
	}
}

// closedFalse backs the all-false presence results a closed store hands
// out of LookupBatch/DeleteBatch. The results are immutable by contract
// (nothing was looked up or deleted), so one shared read-only arena
// replaces the former make([]bool, n) per call; a batch larger than the
// arena — far beyond any coalesced frame — still allocates.
var closedFalse [4096]bool

// zeroFound returns an all-false []bool of length n, allocation-free
// for any batch the serve path produces. Callers must treat the result
// as read-only.
func zeroFound(n int) []bool {
	if n <= len(closedFalse) {
		return closedFalse[:n:n]
	}
	return make([]bool, n)
}

// batchIndex is the contract every internal index implementation satisfies
// natively; the store wrapper adds lifecycle and observability on top.
type batchIndex interface {
	Index
	InsertBatch(keys, values []uint64) error
	LookupBatch(keys []uint64, out []uint64) []bool
	DeleteBatch(keys []uint64) []bool
	Range(fn func(key, value uint64) bool)
}

// applyRuns executes a mixed batch against an index as maximal same-kind
// runs, in entry order: each run becomes one native batch call (one
// routing decision, per the paper's amortization), and a single-entry
// run uses the single-op path so a lone pipelined request costs what it
// did before batching existed. Results land at the entries' caller-order
// positions. It returns how many multi-entry runs of each kind ran (the
// store's batch counters count exactly those, keeping their meaning from
// the same-kind era) and the first insert error; later runs still
// execute, but per the ApplyBatch contract the whole batch then fails as
// a unit.
func applyRuns(idx batchIndex, b *op.Batch, res *op.Results) (runs [3]uint64, firstErr error) {
	kinds, keys, vals := b.Kinds(), b.Keys(), b.Vals()
	res.Reset(len(kinds))
	runs = op.CountRuns(kinds) // the one shared "what counts as a batch" definition
	for i := 0; i < len(kinds); {
		j := i + 1
		for j < len(kinds) && kinds[j] == kinds[i] {
			j++
		}
		switch kinds[i] {
		case op.Get:
			if j-i == 1 {
				res.Vals[i], res.Found[i] = idx.Lookup(keys[i])
			} else {
				copy(res.Found[i:j], idx.LookupBatch(keys[i:j], res.Vals[i:j]))
			}
		case op.Put:
			var err error
			if j-i == 1 {
				err = idx.Insert(keys[i], vals[i])
			} else {
				err = idx.InsertBatch(keys[i:j], vals[i:j])
			}
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				for k := i; k < j; k++ {
					res.Found[k] = true
				}
			}
		case op.Del:
			if j-i == 1 {
				res.Found[i] = idx.Delete(keys[i])
			} else {
				copy(res.Found[i:j], idx.DeleteBatch(keys[i:j]))
			}
		}
		i = j
	}
	return runs, firstErr
}

// effectiveLoadFactor mirrors the 0.35 default every implementation fills
// in, so capacity pre-sizing agrees with the table it sizes.
func (o *storeOptions) effectiveLoadFactor() float64 {
	if o.maxLoadFactor > 0 {
		return o.maxLoadFactor
	}
	return 0.35
}

// openBytes sizes an open-addressing table (16-byte slots) so capacity
// entries fit without a rehash.
func (o *storeOptions) openBytes() int {
	if o.capacity <= 0 {
		return 0
	}
	slots := int(float64(o.capacity)/o.effectiveLoadFactor()) + 1
	return slots * 16
}

// ehConfig assembles the extendible-hashing config shared by KindEH and
// KindShortcutEH.
func (o *storeOptions) ehConfig() eh.Config {
	cfg := eh.Config{
		MaxLoadFactor:   o.maxLoadFactor,
		MergeLoadFactor: o.mergeLoadFactor,
	}
	switch {
	case o.initialGDSet:
		cfg.InitialGlobalDepth = o.initialGD
	case o.capacity > 0:
		// Buckets needed at the split threshold, rounded up to a power of
		// two of directory slots (255 entry slots per 4 KB bucket).
		maxFill := int(o.effectiveLoadFactor() * 255)
		if maxFill < 1 {
			maxFill = 1
		}
		buckets := (o.capacity + maxFill - 1) / maxFill
		for cfg.InitialGlobalDepth = 0; 1<<cfg.InitialGlobalDepth < buckets; cfg.InitialGlobalDepth++ {
		}
	}
	return cfg
}

// autoPool creates the pool Open owns when none was injected, sized from
// the capacity hint when one was given.
func (o *storeOptions) autoPool() (*Pool, error) {
	cfg := o.poolCfg
	if o.capacity > 0 && cfg.MaxPages == 0 {
		// ≈ capacity/32 pages of buckets at the 0.35 load factor, with
		// headroom for splits in flight and shortcut areas.
		pages := o.capacity/32 + (1 << 12)
		cfg.MaxPages = pages * 4
		if cfg.GrowChunkPages == 0 {
			cfg.GrowChunkPages = 1 << 10
		}
	}
	return pool.New(cfg)
}

// Open constructs the index kind behind the uniform Store surface. A pool
// is created and owned by the store when the kind needs one and WithPool
// did not inject it, so Open(KindShortcutEH) works with no further setup.
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
	s := &store{kind: kind}

	// Acquire the page pool for the kinds that allocate from one.
	switch kind {
	case KindEH, KindShortcutEH, KindRadix:
		if o.pool != nil {
			s.pool = o.pool
		} else {
			p, err := o.autoPool()
			if err != nil {
				return nil, fmt.Errorf("vmshortcut: opening %s: %w", kind, err)
			}
			s.pool = p
			s.ownsPool = true
		}
	}
	// On any construction failure below, give back what Open created.
	fail := func(err error) (*store, error) {
		if s.ownsPool {
			s.pool.Close()
		}
		return nil, fmt.Errorf("vmshortcut: opening %s: %w", kind, err)
	}

	switch kind {
	case KindHT:
		t := ht.New(ht.Config{MaxLoadFactor: o.maxLoadFactor, InitialBytes: o.openBytes()})
		s.idx = t
		s.stats = func() Stats {
			return Stats{
				Kind:           KindHT,
				Entries:        t.Len(),
				DirectorySlots: t.Slots(),
				LoadFactor:     float64(t.Len()) / float64(t.Slots()),
				StructuralMods: uint64(t.Rehashes),
			}
		}

	case KindHTI:
		t := hti.New(hti.Config{
			MaxLoadFactor:  o.maxLoadFactor,
			InitialBytes:   o.openBytes(),
			MigrationBatch: o.migrationBatch,
		})
		s.idx = t
		s.stats = func() Stats {
			return Stats{Kind: KindHTI, Entries: t.Len(), StructuralMods: uint64(t.Resizes)}
		}

	case KindCH:
		bytes := o.tableBytes
		if bytes == 0 && o.capacity > 0 {
			// The paper's 1 GB : 100M ratio — 10 bytes of directory per
			// expected entry.
			bytes = o.capacity * 10
		}
		t := ch.New(ch.Config{TableBytes: bytes})
		s.idx = t
		s.stats = func() Stats {
			return Stats{
				Kind:           KindCH,
				Entries:        t.Len(),
				DirectorySlots: t.Slots(),
				Buckets:        t.ChainedBuckets,
				LoadFactor:     float64(t.Len()) / float64(t.Slots()),
			}
		}

	case KindEH:
		t, err := eh.New(s.pool, o.ehConfig())
		if err != nil {
			return fail(err)
		}
		if o.mergeLoadFactor > 0 {
			s.idx = mergingEH{t}
		} else {
			s.idx = t
		}
		s.under = t
		s.stats = func() Stats {
			st := ehShapeStats(t.Stats())
			st.Kind = KindEH
			return st
		}

	case KindShortcutEH:
		cfg := sceh.Config{
			EH:              o.ehConfig(),
			PollInterval:    o.pollInterval,
			FanInThreshold:  o.fanInThreshold,
			AdaptiveRouting: o.adaptiveRouting,
			Synchronous:     o.synchronous,
			DisableShortcut: o.disableShortcut,
		}
		t, err := sceh.New(s.pool, cfg)
		if err != nil {
			return fail(err)
		}
		s.idx = t
		s.under = t
		s.closeInner = t.Close
		s.waitSync = t.WaitSync
		s.stats = func() Stats {
			st := ehShapeStats(t.EH().Stats())
			scehStats(&st, t, t.Stats())
			return st
		}

	case KindRadix:
		if o.capacity <= 0 {
			return fail(errors.New("radix requires WithCapacity (the exclusive key-space bound)"))
		}
		m, err := radix.New(s.pool, radix.Config{
			Capacity:        uint64(o.capacity),
			DisableShortcut: o.disableShortcut,
		})
		if err != nil {
			return fail(err)
		}
		s.idx = m
		s.under = m
		s.closeInner = m.Close
		s.stats = func() Stats {
			return Stats{
				Kind:           KindRadix,
				Entries:        m.Len(),
				DirectorySlots: m.Slots(),
				Buckets:        m.LeafAllocs - m.LeafFrees,
				StructuralMods: uint64(m.LeafAllocs + m.LeafFrees),
			}
		}
	}

	// Concurrency: every kind shares one readers-writer wrapper that also
	// owns the closed flag, so Close drains in-flight operations before
	// releasing the underlying memory. Reads stay parallel for the kinds
	// whose reads are pure (Shortcut-EH lookups only touch atomics; HTI
	// reads migrate entries and serialize).
	if o.concurrent {
		lck := &lockedIndex{
			idx:         s.idx,
			readMutates: kind == KindHTI,
			// readSafe is the per-kind capability bit for the seqlock fast
			// path: every kind whose reads are pure qualifies; KindHTI's
			// reads migrate entries and must keep the locked path.
			readSafe:  kind != KindHTI,
			retryHist: o.seqlockHist,
		}
		s.idx = lck
		s.lck = lck
		inner := s.stats
		s.stats = func() Stats {
			lck.mu.Lock()
			defer lck.mu.Unlock()
			if lck.closed {
				return Stats{Kind: kind}
			}
			st := inner()
			lck.fillFastpath(&st)
			return st
		}
	}
	return s, nil
}

// ehShapeStats maps the extendible-hashing shape statistics onto the
// common struct.
func ehShapeStats(ms eh.MemStats) Stats {
	return Stats{
		Entries:        ms.Entries,
		GlobalDepth:    ms.GlobalDepth,
		DirectorySlots: ms.DirectorySlots,
		Buckets:        ms.Buckets,
		LoadFactor:     ms.LoadFactor,
		AvgFanIn:       ms.AvgFanIn,
		StructuralMods: ms.StructuralMods,
	}
}

// scehStats fills the shortcut maintenance and routing fields from a
// Shortcut-EH table's counters.
func scehStats(st *Stats, t *sceh.Table, s sceh.Stats) {
	st.Kind = KindShortcutEH
	st.ShortcutLookups = s.ShortcutLookups
	st.TraditionalLookups = s.TraditionalLookups
	st.UpdatesApplied = s.UpdatesApplied
	st.CreatesApplied = s.CreatesApplied
	st.UpdatesSuperseded = s.UpdatesSuperseded
	st.Remaps = s.Remaps
	st.TradVersion = t.TradVersion()
	st.ShortcutVersion = t.ShortcutVersion()
	st.InSync = t.InSync()
	st.UsingShortcut = t.UsingShortcut()
}

// mergingEH routes deletes through bucket coalescing when
// WithMergeLoadFactor enabled it for KindEH.
type mergingEH struct{ *eh.Table }

func (m mergingEH) Delete(key uint64) bool { return m.Table.DeleteAndMerge(key) }

func (m mergingEH) DeleteBatch(keys []uint64) []bool { return m.Table.DeleteAndMergeBatch(keys) }

// lockedIndex serializes a batchIndex for WithConcurrency. Reads take the
// shared lock unless the implementation mutates on read (KindHTI's
// incremental migration), and batch operations amortize the lock to one
// acquisition. It also owns the authoritative closed check: the flag is
// read under the lock, so close() cannot release the underlying memory
// while an operation is mid-flight.
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
	mu          sync.RWMutex
	idx         batchIndex
	readMutates bool
	readSafe    bool
	closed      bool

	seq        atomic.Uint64
	optReaders atomic.Int64
	closedA    atomic.Bool
	retryHist  *obs.Hist

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

func (l *lockedIndex) rlock() {
	if l.readMutates {
		l.mu.Lock()
	} else {
		l.mu.RLock()
	}
}

func (l *lockedIndex) runlock() {
	if l.readMutates {
		l.mu.Unlock()
	} else {
		l.mu.RUnlock()
	}
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
	l.rlock()
	defer l.runlock()
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
	l.rlock()
	defer l.runlock()
	if l.closed {
		return 0
	}
	return l.idx.Len()
}

func (l *lockedIndex) InsertBatch(keys, values []uint64) error {
	l.beginWrite()
	defer l.endWrite()
	if l.closed {
		return ErrClosed
	}
	return l.idx.InsertBatch(keys, values)
}

func (l *lockedIndex) LookupBatch(keys []uint64, out []uint64) []bool {
	l.rlock()
	defer l.runlock()
	if l.closed {
		return zeroFound(len(keys))
	}
	return l.idx.LookupBatch(keys, out)
}

func (l *lockedIndex) DeleteBatch(keys []uint64) []bool {
	l.beginWrite()
	defer l.endWrite()
	if l.closed {
		return zeroFound(len(keys))
	}
	return l.idx.DeleteBatch(keys)
}

// applyBatch executes a mixed batch under ONE lock acquisition — the
// write lock when the batch mutates (or reads migrate, KindHTI), the
// read lock for a pure-GET batch — so a coalesced pipeline round pays
// one lock, not one per kind switch. On read-safe kinds a pure-GET batch
// first attempts a lock-free seqlock pass (seqlockGets) and only falls
// back to the lock when that pass cannot validate. Plain builds only:
// the race detector would flag the pass's unsynchronized reads, so -race
// builds always take the lock.
func (l *lockedIndex) applyBatch(b *op.Batch, res *op.Results) ([3]uint64, error) {
	pureGet := b.Mutations() == 0 && !l.readMutates
	if pureGet && b.Len() > 0 && !raceEnabled && l.readSafe {
		if l.seqlockGets(b.Keys(), res) {
			return op.CountRuns(b.Kinds()), nil
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
		return [3]uint64{}, ErrClosed
	}
	runs, err := applyRuns(l.idx, b, res)
	if b.Mutations() == 0 {
		// GET entries served under the lock — including KindHTI's, whose
		// migrating reads hold the write lock.
		l.lockedGets.Add(uint64(b.Len()))
	}
	return runs, err
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
			if l.retryHist != nil {
				l.retryHist.Record(uint64(attempt))
			}
			return true
		}
		l.seqRetries.Add(1)
	}
	l.seqFallbacks.Add(1)
	return false
}

// optimisticPass reads each key from the index without any lock,
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
	for i, k := range keys {
		res.Vals[i], res.Found[i] = l.idx.Lookup(k)
	}
	return true
}

func (l *lockedIndex) Range(fn func(key, value uint64) bool) {
	l.rlock()
	defer l.runlock()
	if l.closed {
		return
	}
	l.idx.Range(fn)
}

// store implements Store: one batchIndex plus kind-specific lifecycle and
// observability hooks.
type store struct {
	kind       Kind
	idx        batchIndex
	pool       *Pool
	ownsPool   bool
	under      any                      // concrete table for the As* escape hatches
	closeInner func() error             // kind's own Close; nil when it has none
	waitSync   func(time.Duration) bool // nil: always in sync
	stats      func() Stats
	lck        *lockedIndex // set with WithConcurrency; owns close ordering

	// Batch-call counters surfaced through Stats; atomics so concurrent
	// stores count without widening any lock's critical section.
	insertBatches atomic.Uint64
	lookupBatches atomic.Uint64
	deleteBatches atomic.Uint64

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

func (s *store) InsertBatch(keys, values []uint64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	s.insertBatches.Add(1)
	return s.idx.InsertBatch(keys, values)
}

func (s *store) LookupBatch(keys []uint64, out []uint64) []bool {
	if s.closed.Load() {
		return zeroFound(len(keys))
	}
	s.lookupBatches.Add(1)
	return s.idx.LookupBatch(keys, out)
}

func (s *store) DeleteBatch(keys []uint64) []bool {
	if s.closed.Load() {
		return zeroFound(len(keys))
	}
	s.deleteBatches.Add(1)
	return s.idx.DeleteBatch(keys)
}

func (s *store) ApplyBatch(b *op.Batch, res *op.Results) error {
	if s.closed.Load() {
		res.Reset(b.Len())
		return ErrClosed
	}
	var runs [3]uint64
	var err error
	if s.lck != nil {
		runs, err = s.lck.applyBatch(b, res)
	} else {
		runs, err = applyRuns(s.idx, b, res)
	}
	s.lookupBatches.Add(runs[op.Get])
	s.insertBatches.Add(runs[op.Put])
	s.deleteBatches.Add(runs[op.Del])
	return err
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
	st := s.stats()
	st.InsertBatches = s.insertBatches.Load()
	st.LookupBatches = s.lookupBatches.Load()
	st.DeleteBatches = s.deleteBatches.Load()
	return st
}

func (s *store) WaitSync(timeout time.Duration) bool {
	if s.closed.Load() {
		return false
	}
	if s.waitSync == nil {
		return true
	}
	return s.waitSync(timeout)
}

// Close releases the index and, when Open created it, the backing pool.
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
		if s.closeInner != nil {
			firstErr = s.closeInner()
		}
		if s.ownsPool {
			if err := s.pool.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}
	if s.lck != nil {
		return s.lck.close(release)
	}
	return release()
}

// AsShortcutEH returns the Shortcut-EH table behind an open
// KindShortcutEH store, for read-only inspection past the uniform surface.
// With WithConcurrency, the caller must not race mutations through it.
// A sharded store (WithShards > 1) has no single concrete table, so every
// As* escape hatch reports false for it.
func AsShortcutEH(s Store) (*ShortcutEH, bool) {
	t, ok := underOf(s).(*sceh.Table)
	return t, ok
}

// AsExtendibleHashing returns the EH table behind an open KindEH store,
// e.g. for WriteSnapshot; same caveats as AsShortcutEH.
func AsExtendibleHashing(s Store) (*ExtendibleHashing, bool) {
	t, ok := underOf(s).(*eh.Table)
	return t, ok
}

// AsRadixMap returns the radix map behind an open KindRadix store, e.g.
// for Range iteration; same caveats as AsShortcutEH.
func AsRadixMap(s Store) (*RadixMap, bool) {
	m, ok := underOf(s).(*radix.Map)
	return m, ok
}

func underOf(s Store) any {
	// The durable wrapper is transparent here: it decorates exactly one
	// inner store, so the documented "sharded stores are the only ones
	// without a concrete table" contract holds with WithWAL too.
	if d, ok := s.(*durableStore); ok {
		s = d.inner
	}
	st, ok := s.(*store)
	if !ok || st.closed.Load() {
		return nil
	}
	return st.under
}
