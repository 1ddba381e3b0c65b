package vmshortcut

import (
	"fmt"
	"sync"
	"time"

	"vmshortcut/internal/hashfn"
	"vmshortcut/internal/op"
)

// shardFanOutMin is the batch size below which the per-shard sub-batches
// run on the calling goroutine: spawning goroutines for a handful of keys
// costs more than it parallelizes.
const shardFanOutMin = 128

// sharded is the Store behind Open(kind, WithShards(n)) for n > 1: the
// keyspace hash-partitioned across n independent sub-stores. Each shard is
// a full store with its own lock stripe (openSharded forces the concurrent
// wrapper), so the sharded store is safe for any number of goroutines and
// writers to different shards never contend. The sharded layer itself
// holds no mutable state — routing is a pure function of the key — so it
// needs no lock of its own; lifecycle (ErrClosed, idempotent Close) is
// delegated to the shards.
type sharded struct {
	kind   Kind
	shards []Store

	// runs counts the same-kind runs of the batches ApplyBatch received;
	// the shards count none, so the fan-out's sub-batches are not counted.
	runs batchRuns

	scratch sync.Pool // of *applyScratch, reused across ApplyBatch calls
}

// openSharded builds the n sub-stores behind WithShards(n). Each shard
// gets a copy of the options with the concurrent wrapper forced on (the
// per-shard lock stripes replacing WithConcurrency's single lock) and the
// capacity hint divided across the shards, so the total stays what the
// caller asked for.
func openSharded(kind Kind, o *storeOptions) (Store, error) {
	n := o.shards
	shards := make([]Store, n)
	for i := range shards {
		so := *o
		so.shards = 1
		so.concurrent = true
		if so.capacity > 0 {
			so.capacity = (o.capacity + n - 1) / n
		}
		s, err := openStore(kind, &so)
		if err != nil {
			for _, prev := range shards[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("vmshortcut: opening shard %d/%d: %w", i, n, err)
		}
		s.shard = true
		shards[i] = s
	}
	return &sharded{kind: kind, shards: shards}, nil
}

func (s *sharded) Kind() Kind { return s.kind }

// shardOf routes a key to its shard. The same key always routes to the
// same shard, on both the single and the batch path.
func (s *sharded) shardOf(key uint64) int { return hashfn.ShardOf(key, len(s.shards)) }

func (s *sharded) Insert(key, value uint64) error {
	return s.shards[s.shardOf(key)].Insert(key, value)
}

func (s *sharded) Lookup(key uint64) (uint64, bool) {
	return s.shards[s.shardOf(key)].Lookup(key)
}

func (s *sharded) Delete(key uint64) bool {
	return s.shards[s.shardOf(key)].Delete(key)
}

func (s *sharded) Len() int {
	total := 0
	for _, sh := range s.shards {
		total += sh.Len()
	}
	return total
}

// applyScratch is the routing state of one ApplyBatch call: each entry's
// shard, the per-shard sub-batches and their results, the caller
// positions that map them back, and the per-shard errors. Sub-batches
// never outlive the call — the durable layer logs the caller's batch, not
// these — so calls recycle their scratch through sharded.scratch instead
// of allocating it per batch.
type applyScratch struct {
	counts []int
	route  []uint32
	flatP  []int
	pos    [][]int
	sub    []op.Batch
	subRes []op.Results
	errs   []error
}

// getScratch returns a scratch for a batch of n entries, its per-call
// fields emptied.
func (s *sharded) getScratch(n int) *applyScratch {
	ns := len(s.shards)
	sc, _ := s.scratch.Get().(*applyScratch)
	if sc == nil {
		sc = &applyScratch{
			counts: make([]int, ns),
			pos:    make([][]int, ns),
			sub:    make([]op.Batch, ns),
			subRes: make([]op.Results, ns),
			errs:   make([]error, ns),
		}
	}
	if cap(sc.route) < n {
		sc.route = make([]uint32, n)
		sc.flatP = make([]int, n)
	}
	sc.route, sc.flatP = sc.route[:n], sc.flatP[:n]
	clear(sc.counts)
	clear(sc.errs)
	for sh := range sc.sub {
		sc.sub[sh].Reset()
	}
	return sc
}

// applyShard runs shard sh's sub-batch.
func (s *sharded) applyShard(sc *applyScratch, sh int) {
	sc.errs[sh] = s.shards[sh].ApplyBatch(&sc.sub[sh], &sc.subRes[sh])
}

// fanOut applies every non-empty sub-batch. Small batches (or a batch that
// routed entirely to one shard) run on the calling goroutine; otherwise
// one goroutine is spawned per additional shard and the first hit shard
// runs on the caller — the caller would only block on wg.Wait anyway, so
// this saves one spawn per batch.
func (s *sharded) fanOut(sc *applyScratch, total int) {
	hit := 0
	for _, c := range sc.counts {
		if c > 0 {
			hit++
		}
	}
	if hit <= 1 || total < shardFanOutMin {
		for sh, c := range sc.counts {
			if c > 0 {
				s.applyShard(sc, sh)
			}
		}
		return
	}
	var wg sync.WaitGroup
	inline := -1
	for sh, c := range sc.counts {
		if c == 0 {
			continue
		}
		if inline < 0 {
			inline = sh
			continue
		}
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			s.applyShard(sc, sh)
		}(sh)
	}
	s.applyShard(sc, inline)
	wg.Wait()
}

// ApplyBatch splits a mixed batch across the shards in ONE pass — each
// entry is routed by its key, so the per-key operation order of the
// caller's batch is preserved inside the owning shard's sub-batch — fans
// the per-shard sub-batches out in parallel, and gathers the per-entry
// outcomes back into caller order. The batch counters count the
// caller-facing batch's same-kind runs once; the per-shard sub-batches
// are not double counted. The first shard
// error (in shard order) fails the whole batch, per the ApplyBatch
// unit-failure contract.
func (s *sharded) ApplyBatch(b *op.Batch, res *op.Results) error {
	n := b.Len()
	res.Reset(n)
	if n == 0 {
		return nil
	}
	kinds, keys, vals := b.Kinds(), b.Keys(), b.Vals()
	sc := s.getScratch(n)
	defer s.scratch.Put(sc)
	for i, k := range keys {
		sh := s.shardOf(k)
		sc.route[i] = uint32(sh)
		sc.counts[sh]++
	}
	off := 0
	for sh, c := range sc.counts {
		sc.sub[sh].Grow(c)
		sc.pos[sh] = sc.flatP[off : off : off+c]
		off += c
	}
	for i, k := range keys {
		sh := sc.route[i]
		sc.sub[sh].Add(kinds[i], k, vals[i])
		sc.pos[sh] = append(sc.pos[sh], i)
	}
	s.runs.add(kinds)

	s.fanOut(sc, n)
	for sh, pos := range sc.pos {
		sub := &sc.subRes[sh]
		for j, i := range pos {
			res.Found[i] = sub.Found[j]
			res.Vals[i] = sub.Vals[j]
		}
	}
	for _, err := range sc.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Range calls fn for every stored entry until fn returns false, visiting
// the shards sequentially. Each shard's iteration runs under that shard's
// read lock, so Range is safe against concurrent mutation — but entries
// mutated while the iteration is between shards may or may not be
// observed, the usual weakly consistent contract of concurrent ranges.
func (s *sharded) Range(fn func(key, value uint64) bool) {
	stop := false
	for _, sh := range s.shards {
		sh.Range(func(k, v uint64) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Stats aggregates across shards: entries, shape counts and every counter
// are summed, GlobalDepth is the deepest shard's, and the ratios are
// recombined from the sums — AvgFanIn as total slots over total buckets,
// LoadFactor as total entries over the total capacity the per-shard ratios
// imply. InSync and UsingShortcut report the conjunction: the sharded
// store is in sync only when every shard's shortcut directory is.
//
// The summed TradVersion/ShortcutVersion preserve the classic
// "versions equal ⇔ in sync" reading: each shard's snapshot is taken
// under that shard's lock, where the traditional version is frozen and
// the mapper can only catch the shortcut version up to it, never past it
// (shortcut_i ≤ trad_i always). Sums of such pairs are equal exactly when
// every pair is — offsetting desyncs cannot occur.
func (s *sharded) Stats() Stats {
	agg := Stats{Kind: s.kind, InSync: true, UsingShortcut: true}
	capacity := 0.0 // implied entry capacity summed across shards
	for _, sh := range s.shards {
		st := sh.Stats()
		agg.Entries += st.Entries
		if st.GlobalDepth > agg.GlobalDepth {
			agg.GlobalDepth = st.GlobalDepth
		}
		agg.DirectorySlots += st.DirectorySlots
		agg.Buckets += st.Buckets
		agg.StructuralMods += st.StructuralMods
		agg.ShortcutLookups += st.ShortcutLookups
		agg.TraditionalLookups += st.TraditionalLookups
		agg.UpdatesApplied += st.UpdatesApplied
		agg.CreatesApplied += st.CreatesApplied
		agg.UpdatesSuperseded += st.UpdatesSuperseded
		agg.Remaps += st.Remaps
		agg.MapperFailures += st.MapperFailures
		agg.TradVersion += st.TradVersion
		agg.ShortcutVersion += st.ShortcutVersion
		agg.InSync = agg.InSync && st.InSync
		agg.UsingShortcut = agg.UsingShortcut && st.UsingShortcut
		agg.FastpathSeqlockReads += st.FastpathSeqlockReads
		agg.FastpathLockedReads += st.FastpathLockedReads
		agg.SeqlockRetries += st.SeqlockRetries
		agg.SeqlockFallbacks += st.SeqlockFallbacks
		if st.LoadFactor > 0 {
			capacity += float64(st.Entries) / st.LoadFactor
		}
	}
	if capacity > 0 {
		agg.LoadFactor = float64(agg.Entries) / capacity
	}
	if agg.Buckets > 0 {
		agg.AvgFanIn = float64(agg.DirectorySlots) / float64(agg.Buckets)
	}
	s.runs.fill(&agg)
	return agg
}

// WaitSync fans out to every shard with the same timeout (the shards catch
// up concurrently, so the total wait is bounded by the slowest shard, not
// the sum) and reports whether all of them synchronized in time.
func (s *sharded) WaitSync(timeout time.Duration) bool {
	oks := make([]bool, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh Store) {
			defer wg.Done()
			oks[i] = sh.WaitSync(timeout)
		}(i, sh)
	}
	wg.Wait()
	for _, ok := range oks {
		if !ok {
			return false
		}
	}
	return true
}

// Close closes every shard — in parallel, since each shard's Close drains
// its in-flight operations and releases its own pool — and returns the
// first error in shard order. A failing shard never prevents the remaining
// shards from closing, so no mapped pages leak past Close. Idempotency is
// inherited from the shards' own Close.
func (s *sharded) Close() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, sh Store) {
			defer wg.Done()
			errs[i] = sh.Close()
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
