package vmshortcut

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
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

	// Caller-facing batch counters: one increment per InsertBatch /
	// LookupBatch / DeleteBatch call on this store. Stats reports these
	// instead of the sum of the shards' counters, which would count every
	// fan-out sub-batch.
	insertBatches atomic.Uint64
	lookupBatches atomic.Uint64
	deleteBatches atomic.Uint64
}

// openSharded builds the n sub-stores behind WithShards(n). Each shard
// gets a copy of the options with the concurrent wrapper forced on (the
// per-shard lock stripes replacing WithConcurrency's single lock) and
// every explicit size budget divided across the shards, so the total
// stays what the caller asked for: the capacity hint, WithTableBytes'
// directory, WithPoolConfig's page counts, and WithInitialGlobalDepth's
// pre-sized directory (shrunk by log2 n). The exception is KindRadix,
// whose capacity is the exclusive keyspace bound: hash-routing sends any
// key in [0, cap) to any shard, so every shard must cover the full bound
// (the virtual span is reserved lazily, so this costs address space, not
// memory).
func openSharded(kind Kind, o *storeOptions) (Store, error) {
	n := o.shards
	shards := make([]Store, n)
	for i := range shards {
		so := *o
		so.shards = 1
		so.concurrent = true
		if so.capacity > 0 && kind != KindRadix {
			so.capacity = (o.capacity + n - 1) / n
		}
		if so.tableBytes > 0 {
			so.tableBytes = (o.tableBytes + n - 1) / n
		}
		if so.initialGDSet {
			if shift := uint(bits.Len(uint(n - 1))); so.initialGD > shift {
				so.initialGD -= shift
			} else {
				so.initialGD = 0
			}
		}
		if so.poolCfg.MaxPages > 0 {
			so.poolCfg.MaxPages = (o.poolCfg.MaxPages + n - 1) / n
		}
		if so.poolCfg.InitialPages > 0 {
			so.poolCfg.InitialPages = (o.poolCfg.InitialPages + n - 1) / n
		}
		s, err := openStore(kind, &so)
		if err != nil {
			for _, prev := range shards[:i] {
				prev.Close()
			}
			return nil, fmt.Errorf("vmshortcut: opening shard %d/%d: %w", i, n, err)
		}
		shards[i] = s
	}
	return &sharded{kind: kind, shards: shards}, nil
}

func (s *sharded) Kind() Kind { return s.kind }

// shardOf routes a key to its shard. The same key always routes to the
// same shard, on both the single and the batch paths.
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

// split partitions keys by shard in two passes: count, then scatter. All
// sub-batches are slices of two flat backing arrays laid out in shard
// order, so the allocation count is constant in the shard count — no
// append growth, no per-shard make. pos records each key's original
// position so batch lookups can gather results back in caller order;
// counts feeds fanOut.
func (s *sharded) split(keys []uint64) (byShard [][]uint64, pos [][]int, counts []int) {
	n := len(s.shards)
	counts = make([]int, n)
	route := make([]uint32, len(keys))
	for i, k := range keys {
		sh := s.shardOf(k)
		route[i] = uint32(sh)
		counts[sh]++
	}
	flatK := make([]uint64, len(keys))
	flatP := make([]int, len(keys))
	byShard = make([][]uint64, n)
	pos = make([][]int, n)
	off := 0
	for sh, c := range counts {
		byShard[sh] = flatK[off : off : off+c]
		pos[sh] = flatP[off : off : off+c]
		off += c
	}
	for i, k := range keys {
		sh := route[i]
		byShard[sh] = append(byShard[sh], k)
		pos[sh] = append(pos[sh], i)
	}
	return byShard, pos, counts
}

// fanOut runs fn for every shard whose sub-batch is non-empty (per
// counts). Small batches (or a batch that routed entirely to one shard)
// run on the calling goroutine; otherwise one goroutine is spawned per
// additional shard and the first hit shard runs on the caller — the
// caller would only block on wg.Wait anyway, so this saves one spawn per
// batch.
func (s *sharded) fanOut(counts []int, total int, fn func(sh int)) {
	hit := 0
	for _, c := range counts {
		if c > 0 {
			hit++
		}
	}
	if hit <= 1 || total < shardFanOutMin {
		for sh, c := range counts {
			if c > 0 {
				fn(sh)
			}
		}
		return
	}
	var wg sync.WaitGroup
	inline := -1
	for sh, c := range counts {
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
			fn(sh)
		}(sh)
	}
	fn(inline)
	wg.Wait()
}

// InsertBatch splits the batch by shard and upserts the sub-batches in
// parallel, one goroutine per hit shard, so each shard's index sees one
// contiguous batch (Shortcut-EH makes its routing decision once per
// sub-batch). The first error in shard order is returned; the other
// sub-batches still run to completion.
func (s *sharded) InsertBatch(keys, values []uint64) error {
	if len(keys) != len(values) {
		return fmt.Errorf("vmshortcut: InsertBatch: %d keys but %d values", len(keys), len(values))
	}
	s.insertBatches.Add(1)
	byShard, pos, counts := s.split(keys)
	flatV := make([]uint64, len(keys))
	valsByShard := make([][]uint64, len(s.shards))
	off := 0
	for sh, ps := range pos {
		vs := flatV[off : off+len(ps)]
		for j, i := range ps {
			vs[j] = values[i]
		}
		valsByShard[sh] = vs
		off += len(ps)
	}
	errs := make([]error, len(s.shards))
	s.fanOut(counts, len(keys), func(sh int) {
		errs[sh] = s.shards[sh].InsertBatch(byShard[sh], valsByShard[sh])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LookupBatch splits the probe set by shard, looks the sub-batches up in
// parallel, and gathers values and presence back into caller order. Each
// goroutine writes only its own shard's disjoint positions of out and the
// result slice, so no synchronization beyond the final join is needed.
func (s *sharded) LookupBatch(keys []uint64, out []uint64) []bool {
	s.lookupBatches.Add(1)
	oks := make([]bool, len(keys))
	byShard, pos, counts := s.split(keys)
	flatOut := make([]uint64, len(keys)) // sliced per shard; ranges disjoint
	subOuts := make([][]uint64, len(s.shards))
	off := 0
	for sh, ks := range byShard {
		subOuts[sh] = flatOut[off : off+len(ks)]
		off += len(ks)
	}
	s.fanOut(counts, len(keys), func(sh int) {
		subOks := s.shards[sh].LookupBatch(byShard[sh], subOuts[sh])
		for j, i := range pos[sh] {
			out[i] = subOuts[sh][j]
			oks[i] = subOks[j]
		}
	})
	return oks
}

// DeleteBatch splits the keys by shard, deletes the sub-batches in
// parallel, and gathers per-key presence back into caller order — the
// delete counterpart of LookupBatch, with the same disjoint-write
// guarantee: each goroutine writes only its own shard's positions.
func (s *sharded) DeleteBatch(keys []uint64) []bool {
	s.deleteBatches.Add(1)
	oks := make([]bool, len(keys))
	byShard, pos, counts := s.split(keys)
	s.fanOut(counts, len(keys), func(sh int) {
		subOks := s.shards[sh].DeleteBatch(byShard[sh])
		for j, i := range pos[sh] {
			oks[i] = subOks[j]
		}
	})
	return oks
}

// ApplyBatch splits a mixed batch across the shards in ONE pass — each
// entry is routed by its key, so the per-key operation order of the
// caller's batch is preserved inside the owning shard's sub-batch — fans
// the per-shard sub-batches out in parallel, and gathers the per-entry
// outcomes back into caller order. The batch counters count the
// caller-facing batch's same-kind runs once, like the other batch paths;
// the per-shard sub-batches are not double counted. The first shard
// error (in shard order) fails the whole batch, per the ApplyBatch
// unit-failure contract.
func (s *sharded) ApplyBatch(b *op.Batch, res *op.Results) error {
	n := b.Len()
	res.Reset(n)
	if n == 0 {
		return nil
	}
	kinds, keys, vals := b.Kinds(), b.Keys(), b.Vals()
	ns := len(s.shards)
	counts := make([]int, ns)
	route := make([]uint32, n)
	for i, k := range keys {
		sh := s.shardOf(k)
		route[i] = uint32(sh)
		counts[sh]++
	}
	sub := make([]op.Batch, ns)
	flatP := make([]int, n)
	pos := make([][]int, ns)
	off := 0
	for sh, c := range counts {
		sub[sh].Grow(c)
		pos[sh] = flatP[off : off : off+c]
		off += c
	}
	for i, k := range keys {
		sh := route[i]
		sub[sh].Add(kinds[i], k, vals[i])
		pos[sh] = append(pos[sh], i)
	}
	runs := op.CountRuns(kinds)
	s.lookupBatches.Add(runs[op.Get])
	s.insertBatches.Add(runs[op.Put])
	s.deleteBatches.Add(runs[op.Del])

	subRes := make([]op.Results, ns)
	errs := make([]error, ns)
	s.fanOut(counts, n, func(sh int) {
		errs[sh] = s.shards[sh].ApplyBatch(&sub[sh], &subRes[sh])
	})
	for sh := range pos {
		for j, i := range pos[sh] {
			res.Found[i] = subRes[sh].Found[j]
			res.Vals[i] = subRes[sh].Vals[j]
		}
	}
	for _, err := range errs {
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
	// Batch counters report caller-facing calls, not the per-shard
	// sub-batches the summation above would have accumulated.
	agg.InsertBatches = s.insertBatches.Load()
	agg.LookupBatches = s.lookupBatches.Load()
	agg.DeleteBatches = s.deleteBatches.Load()
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
