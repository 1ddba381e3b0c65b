package sceh

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vmshortcut/internal/bucket"
	"vmshortcut/internal/core"
	"vmshortcut/internal/eh"
	"vmshortcut/internal/fifo"
	"vmshortcut/internal/hashfn"
	"vmshortcut/internal/pool"
	"vmshortcut/internal/sys"
)

// pageShift converts a directory slot number into a byte offset inside a
// shortcut directory (slot << pageShift).
var pageShift = uint(log2(sys.PageSize()))

// Config tunes Shortcut-EH. The zero value selects the paper's parameters.
type Config struct {
	// EH configures the underlying traditional extendible hash table.
	EH eh.Config
	// PollInterval is the mapper thread's tick. Every tick prunes the
	// queue; it replays only if a lookup fell back to the traditional
	// directory since the previous tick, and otherwise parks the mapper
	// until the next fallback wakes it. The interval therefore bounds the
	// lag readers see, not how often the shortcut is rebuilt. Default 25ms
	// (paper §4.1: "empirically determined 25ms to work well"). Tests and
	// benchmarks shorten it.
	PollInterval time.Duration
	// Synchronous applies maintenance requests on the writer goroutine
	// immediately instead of via the mapper thread. Ablation only: it
	// exposes the full remap + TLB-shootdown cost to insertions.
	Synchronous bool
}

// fanInThreshold is the largest average directory fan-in at which lookups
// may take the shortcut (paper §4.1; see the package doc).
const fanInThreshold = 8

// request is one maintenance request on the queue.
type request struct {
	create   bool
	version  uint64
	routable bool // lookups may use the shortcut once it reflects version

	// update fields: remap [lo0,hi0) onto ref0 and [lo1,hi1) onto ref1.
	lo0, hi0 uint64
	ref0     pool.Ref
	lo1, hi1 uint64
	ref1     pool.Ref

	// create fields: rebuild with 2^gd slots mapped onto refs.
	gd   uint
	refs []pool.Ref
}

// scState is the atomically published snapshot lookups read: the in-sync
// shortcut directory base, its depth, the version it reflects, and whether
// lookups may route through it at that version.
type scState struct {
	base     uintptr
	gd       uint
	version  uint64
	routable bool
}

// Stats exposes counters for the experiments.
type Stats struct {
	ShortcutLookups    uint64 // lookups answered through the shortcut
	TraditionalLookups uint64 // lookups answered through the pointer directory
	UpdatesApplied     uint64 // update requests replayed
	CreatesApplied     uint64 // create requests replayed
	UpdatesSuperseded  uint64 // update and create requests dropped due to a newer create
	Remaps             uint64 // mmap calls issued by the mapper
	MapperFailures     uint64 // failed creates and updates; each leaves no live generation
}

// area is a reserved virtual range that shortcut generations are built in.
// It stays reserved until Close.
type area struct {
	base  uintptr
	slots int
}

// Table is a Shortcut-EH index.
//
// Concurrency model (mirroring the paper §4.1): a single goroutine issues
// Insert/Delete/Lookup; the mapper thread runs concurrently and only
// touches the shortcut directory. Additional goroutines may call Lookup
// concurrently with the mapper while the writer is quiescent — the version
// check, shortcut publication, and retirement of old generations are all
// race-free. Lookups concurrent with Insert/Delete require external
// synchronization, exactly as in the original C++ prototype.
//
// An optimistic reader that validates afterwards (the facade's seqlock
// path) may also run beside the writer, because of two guarantees. A
// pending request means the traditional version is ahead of the published
// one, so no lookup that passes the version check afterwards routes
// through the generation a create, or a failed update, retires. And a
// retired generation's range is never unmapped before Close: it reads as
// all-zero pages, which are empty buckets, so a reader that passed the
// check earlier gets a miss that its validation discards.
type Table struct {
	cfg  Config
	pool *pool.Pool
	eh   *eh.Table

	queue   *fifo.Queue[request]
	tradVer atomic.Uint64

	published atomic.Pointer[scState]

	// mapper-owned state
	sc      *core.Shortcut // live generation; nil until a create succeeds
	live    area           // the range sc is built in
	areas   []area         // every reserved range, the live one included
	pending []request      // pruned backlog: at most one create, then updates

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
	kick     chan struct{} // WaitSync and woken readers replay through it
	parked   atomic.Bool   // the mapper holds a backlog until a reader needs it

	scLookups   atomic.Uint64
	tradLookups atomic.Uint64
	updates     atomic.Uint64
	creates     atomic.Uint64
	superseded  atomic.Uint64
	remaps      atomic.Uint64
	failures    atomic.Uint64
}

// New creates a Shortcut-EH table over the given page pool and starts its
// mapper thread (unless cfg.Synchronous).
func New(p *pool.Pool, cfg Config) (*Table, error) {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 25 * time.Millisecond
	}
	inner, err := eh.New(p, cfg.EH)
	if err != nil {
		return nil, err
	}
	t := &Table{
		cfg:   cfg,
		pool:  p,
		eh:    inner,
		queue: fifo.New[request](),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		kick:  make(chan struct{}, 1),
	}
	t.tradVer.Store(inner.Version()) // pre-sized directories start above 0
	inner.SetEventFunc(t.onEvent)

	// Build the initial shortcut synchronously so lookups can use it from
	// the start.
	if err := t.applyCreate(request{
		create:   true,
		version:  inner.Version(),
		routable: t.routable(),
		gd:       inner.GlobalDepth(),
		refs:     inner.Refs(),
	}); err != nil {
		t.unmapAreas()
		return nil, fmt.Errorf("sceh: building initial shortcut: %w", err)
	}
	if !cfg.Synchronous {
		go t.mapperLoop()
	} else {
		close(t.done)
	}
	return t, nil
}

// onEvent runs synchronously on the writer goroutine after each directory
// modification of the traditional table.
func (t *Table) onEvent(e eh.Event) {
	var req request
	switch ev := e.(type) {
	case eh.SplitEvent:
		req = request{
			version: ev.Version,
			lo0:     ev.Lo0, hi0: ev.Hi0, ref0: ev.Ref0,
			lo1: ev.Lo1, hi1: ev.Hi1, ref1: ev.Ref1,
		}
	case eh.DoubleEvent:
		req = request{create: true, version: ev.Version, gd: ev.GlobalDepth, refs: ev.Refs}
	}
	req.routable = t.routable()
	if t.cfg.Synchronous {
		t.tradVer.Store(req.version)
		t.apply(req)
		return
	}
	t.queue.Push(req)
	// Publish the new traditional version last: once lookups observe it,
	// the shortcut is considered stale until the mapper catches up.
	t.tradVer.Store(req.version)
}

// routable reports whether lookups may take a shortcut that reflects the
// directory as it stands now. Writer goroutine only: it reads the EH
// directory, which the mapper must not.
func (t *Table) routable() bool {
	return t.eh.AvgFanIn() <= fanInThreshold
}

// mapperLoop is the mapper thread (paper §4.1). It replays the backlog
// into the shortcut directory only when a reader needs it: on a tick that
// follows a fallback lookup, and at once when WaitSync or a fallback
// reader kicks it. A tick with no fallback since the previous one prunes
// the queue and parks, so a write-only burst issues no mmap at all and
// the first reader after it builds one generation, not one per doubling.
func (t *Table) mapperLoop() {
	// The mapper performs bursts of mmap syscalls and is the thread TLB
	// shootdowns penalize; pin it to an OS thread like the paper's
	// dedicated mapper thread.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer close(t.done)
	ticker := time.NewTicker(t.cfg.PollInterval)
	defer ticker.Stop()
	// Every fallback lookup bumps tradLookups, so a tick that sees it move
	// knows a reader wanted the shortcut since the previous tick.
	fallbacks := t.tradLookups.Load()
	for {
		select {
		case <-t.stop:
			// Close replays nothing: no reader is left to use it.
			return
		case <-ticker.C:
			t.prune()
			if n := t.tradLookups.Load(); n != fallbacks {
				fallbacks = n
				t.replay()
			} else if len(t.pending) > 0 {
				t.parked.Store(true)
			}
		case <-t.kick:
			t.prune()
			t.replay()
		}
	}
}

// prune moves the queue into the pending list. A create drops every
// request before it: they became outdated the moment the directory was
// rebuilt from a newer snapshot, mirroring the paper's "pop all pending
// update requests" before pushing a create.
func (t *Table) prune() {
	for _, r := range t.queue.Drain() {
		if r.create {
			t.superseded.Add(uint64(len(t.pending)))
			t.pending = nil
		}
		t.pending = append(t.pending, r)
	}
}

// replay applies the pending list and unparks the mapper.
func (t *Table) replay() {
	t.parked.Store(false)
	for _, r := range t.pending {
		t.apply(r)
	}
	t.pending = nil
}

// wake restarts a parked mapper. Lookups call it only when they fall back
// to the traditional directory, so the in-sync path never pays for it.
func (t *Table) wake() {
	if t.parked.Load() && t.parked.CompareAndSwap(true, false) {
		select {
		case t.kick <- struct{}{}:
		default:
		}
	}
}

// apply replays one request and publishes the resulting shortcut state.
// A failed create or update leaves no live generation: lookups keep using
// the traditional directory, and no update remaps or publishes until a
// later create succeeds from a fresh snapshot.
func (t *Table) apply(r request) {
	if r.create {
		if t.applyCreate(r) != nil {
			t.failures.Add(1)
		}
		return
	}
	if t.sc == nil {
		return
	}
	// Remap the two slot ranges onto the split buckets. Every slot in a
	// range maps onto the same physical page, so the calls cannot
	// coalesce — this is the fan-in situation of paper §3.2.
	if t.remap(r.lo0, r.hi0, r.ref0) != nil || t.remap(r.lo1, r.hi1, r.ref1) != nil {
		// A slot that failed still maps its bucket from before the split,
		// so publishing any later version would route lookups past the
		// keys that moved.
		t.failures.Add(1)
		_ = t.retire()
		return
	}
	t.updates.Add(1)
	// MAP_POPULATE installed the page-table entries during the remaps, so
	// the version can advance immediately (paper §4.1: populate before
	// bumping the version).
	t.publish(r)
}

// remap points slots [lo, hi) of the live generation at ref.
func (t *Table) remap(lo, hi uint64, ref pool.Ref) error {
	for s := lo; s < hi; s++ {
		if err := t.sc.Set(int(s), ref, true); err != nil {
			return err
		}
		t.remaps.Add(1)
	}
	return nil
}

// retire drops the live generation. The request being replayed has
// already moved the traditional version past the published one, so no
// lookup that checks the version from here on reads the old range; one
// that checked earlier reads zero pages (empty buckets) and must discard
// its answer. See the Table doc.
func (t *Table) retire() error {
	t.sc = nil
	return blank(t.live)
}

// applyCreate retires the current shortcut directory and builds a new one
// from the snapshot in r (paper §4.1, directory doubling). On error no
// generation is live.
func (t *Table) applyCreate(r request) error {
	if t.sc != nil {
		// Retire first, so the old and the new generation never hold
		// their pages at the same time.
		if err := t.retire(); err != nil {
			return err
		}
	}
	a, err := t.areaFor(1 << r.gd)
	if err != nil {
		return err
	}
	sc := core.ShortcutAt(t.pool, a.base, 1<<r.gd)
	calls, err := sc.SetAll(r.refs, true)
	t.remaps.Add(uint64(calls))
	if err != nil {
		// The range was never published, so no reader can hold it:
		// release it. Blanking it instead needs a new mapping, which at
		// the mapping ceiling — where creates fail — is refused.
		return errors.Join(err, t.release(a, sc))
	}
	t.sc, t.live = sc, a
	t.creates.Add(1)
	t.publish(r)
	return nil
}

// release unmaps a range whose build failed before it was published:
// first the slots the build had mapped, each its own mapping, then the
// rest of the reservation. Neither call needs a new mapping. The range
// was the last one reserved; it leaves t.areas once unmapped, and if only
// the first call succeeds the record shrinks to the part still mapped, so
// Close never unmaps addresses the kernel may have handed out again.
func (t *Table) release(a area, sc *core.Shortcut) error {
	end := a.slots
	for end > 0 && !sc.Mapped(end-1) {
		end--
	}
	if end > 0 {
		if err := sys.Unmap(a.base, end<<pageShift); err != nil {
			return err
		}
	}
	last := len(t.areas) - 1
	if end < a.slots {
		if err := sys.Unmap(a.base+uintptr(end)<<pageShift, (a.slots-end)<<pageShift); err != nil {
			t.areas[last] = area{base: a.base + uintptr(end)<<pageShift, slots: a.slots - end}
			return err
		}
	}
	t.areas = t.areas[:last]
	return nil
}

// blank lays one read-only anonymous mapping over the whole of a: its
// pages read as zeros, hold no memory, and count as a single mapping.
func blank(a area) error {
	return sys.MapZeroFixed(a.base, a.slots<<pageShift)
}

// areaFor reserves a new range of slots pages. The directory only
// doubles, so every create is deeper than every earlier range and no
// retired range could hold it; retired ranges stay blank until Close.
func (t *Table) areaFor(slots int) (area, error) {
	base, err := sys.ReserveAnon(slots << pageShift)
	if err != nil {
		return area{}, err
	}
	a := area{base: base, slots: slots}
	t.areas = append(t.areas, a)
	return a, nil
}

// unmapAreas releases every reserved range.
func (t *Table) unmapAreas() error {
	var firstErr error
	for _, a := range t.areas {
		if err := sys.Unmap(a.base, a.slots<<pageShift); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.areas = nil
	t.sc = nil
	return firstErr
}

// publish makes the live generation, as of r, the state lookups read.
func (t *Table) publish(r request) {
	gd := uint(log2(t.sc.Slots()))
	t.published.Store(&scState{base: t.sc.Base(), gd: gd, version: r.version, routable: r.routable})
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// Insert upserts (key, value). Directory modifications are applied to the
// traditional directory synchronously and to the shortcut asynchronously.
func (t *Table) Insert(key, value uint64) error {
	return t.eh.Insert(key, value)
}

// Lookup returns the value stored for key. It routes through the shortcut
// directory when the published shortcut is routable and in sync, and
// through the traditional directory otherwise.
func (t *Table) Lookup(key uint64) (uint64, bool) {
	if st := t.route(); st != nil {
		t.scLookups.Add(1)
		return st.lookup(key)
	}
	t.tradLookups.Add(1)
	t.wake()
	return t.eh.Lookup(key)
}

// route returns the published state if it is routable and in sync, and
// nil otherwise.
func (t *Table) route() *scState {
	st := t.published.Load()
	if st == nil || !st.routable || st.version != t.tradVer.Load() {
		return nil
	}
	return st
}

// lookup reads key's bucket through the shortcut directory st describes.
func (st *scState) lookup(key uint64) (uint64, bool) {
	slot := hashfn.DirIndex(hashfn.Hash(key), st.gd)
	return bucket.ViewAddr(st.base + uintptr(slot)<<pageShift).Lookup(key)
}

// Delete removes key. Buckets never merge (the paper's configuration),
// and bucket contents are shared physical pages, so a delete needs no
// shortcut maintenance.
func (t *Table) Delete(key uint64) bool { return t.eh.Delete(key) }

// Len returns the number of stored entries.
func (t *Table) Len() int { return t.eh.Len() }

// Range calls fn for every stored entry until fn returns false, walking
// the traditional directory (bucket contents are shared with the shortcut,
// so no synchronization with the mapper is needed — but Range must not
// race mutations, exactly like Lookup). fn must not mutate the table.
func (t *Table) Range(fn func(key, value uint64) bool) { t.eh.Range(fn) }

// EH exposes the underlying traditional table (read-only use).
func (t *Table) EH() *eh.Table { return t.eh }

// TradVersion returns the traditional directory's version number.
func (t *Table) TradVersion() uint64 { return t.tradVer.Load() }

// ShortcutVersion returns the version the shortcut directory reflects.
func (t *Table) ShortcutVersion() uint64 {
	if st := t.published.Load(); st != nil {
		return st.version
	}
	return 0
}

// InSync reports whether the shortcut directory has caught up.
func (t *Table) InSync() bool { return t.ShortcutVersion() == t.tradVer.Load() }

// UsingShortcut reports whether the next lookup would take the shortcut.
func (t *Table) UsingShortcut() bool { return t.route() != nil }

// WaitSync blocks until the shortcut directory is in sync or the timeout
// elapses, reporting success. It wakes the mapper, parked or not, instead
// of waiting for its next tick. Once Close has begun it returns false: the
// mapper replays nothing more.
func (t *Table) WaitSync(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-t.stop:
			return false
		default:
		}
		if t.InSync() {
			return true
		}
		select {
		case t.kick <- struct{}{}:
		default:
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Stats returns a snapshot of the table's counters.
func (t *Table) Stats() Stats {
	return Stats{
		ShortcutLookups:    t.scLookups.Load(),
		TraditionalLookups: t.tradLookups.Load(),
		UpdatesApplied:     t.updates.Load(),
		CreatesApplied:     t.creates.Load(),
		UpdatesSuperseded:  t.superseded.Load(),
		Remaps:             t.remaps.Load(),
		MapperFailures:     t.failures.Load(),
	}
}

// Close stops the mapper thread, discarding its backlog unreplayed, and
// releases all shortcut virtual areas. The underlying pool and its bucket
// pages belong to the caller.
func (t *Table) Close() error {
	t.stopOnce.Do(func() { close(t.stop) })
	<-t.done
	return t.unmapAreas()
}
