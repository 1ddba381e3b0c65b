package vmshortcut

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmshortcut/internal/eh"
	"vmshortcut/internal/hashfn"
)

// openShardedSCEH opens a sharded Shortcut-EH store with a fast mapper
// poll, cleaned up with the test.
func openShardedSCEH(tb testing.TB, shards int, extra ...Option) Store {
	tb.Helper()
	opts := append([]Option{
		WithShards(shards),
		WithPollInterval(time.Millisecond),
	}, extra...)
	s, err := Open(KindShortcutEH, opts...)
	if err != nil {
		tb.Fatalf("Open(shortcut-eh, shards=%d): %v", shards, err)
	}
	tb.Cleanup(func() { s.Close() })
	return s
}

// TestShardRoutingStability checks that the batch and single operation
// paths agree on shard placement: every key inserted through an all-PUT
// ApplyBatch must be found by a single Lookup (which routes
// independently), deleted by a single Delete, and re-found by an all-GET
// ApplyBatch — any routing divergence shows up as a miss against a
// different shard. Both batches are far above shardFanOutMin, so they take
// the goroutine fan-out.
func TestShardRoutingStability(t *testing.T) {
	const n, shards = 20000, 5
	s := openShardedSCEH(t, shards)

	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 2654435761 // spread keys; routing must not care
		vals[i] = uint64(i) + 7
	}
	if err := putBatch(s, keys, vals); err != nil {
		t.Fatalf("PUT batch: %v", err)
	}
	if got := s.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	for i, k := range keys {
		v, ok := s.Lookup(k)
		if !ok || v != vals[i] {
			t.Fatalf("single Lookup(%d) = (%d, %v), want (%d, true): batch and single paths disagree on shard", k, v, ok, vals[i])
		}
	}
	// Delete the first half through the single path, then verify presence
	// through the batch path.
	for _, k := range keys[:n/2] {
		if !s.Delete(k) {
			t.Fatalf("single Delete(%d) missed a batch-inserted key", k)
		}
	}
	res := getBatch(s, keys)
	for i := range keys {
		want := i >= n/2
		if res.Found[i] != want {
			t.Fatalf("GET batch presence[%d] = %v, want %v", i, res.Found[i], want)
		}
		if want && res.Vals[i] != vals[i] {
			t.Fatalf("GET batch value[%d] = %d, want %d", i, res.Vals[i], vals[i])
		}
	}
}

// TestShardedDeleteBatch checks the delete fan-out of an all-DEL
// ApplyBatch: per-key presence comes back in caller order across shard
// boundaries, duplicates within one batch resolve in order (first
// occurrence deletes, second misses), and the Stats batch counters count
// caller-facing batches exactly once — not the per-shard sub-batches of
// the fan-out.
func TestShardedDeleteBatch(t *testing.T) {
	const n, shards = 10000, 4
	s := openShardedSCEH(t, shards)

	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i)*7919 + 3
		vals[i] = uint64(i)
	}
	if err := putBatch(s, keys, vals); err != nil {
		t.Fatalf("PUT batch: %v", err)
	}

	// Delete the even positions plus a duplicate and a never-inserted key.
	dels := make([]uint64, 0, n/2+2)
	for i := 0; i < n; i += 2 {
		dels = append(dels, keys[i])
	}
	dels = append(dels, keys[0], 1) // duplicate; absent key
	oks := delBatch(s, dels)
	for i := 0; i < n/2; i++ {
		if !oks[i] {
			t.Fatalf("DEL batch[%d] (key %d) = false, want true", i, dels[i])
		}
	}
	if oks[n/2] || oks[n/2+1] {
		t.Fatalf("duplicate/absent keys reported deleted: %v %v", oks[n/2], oks[n/2+1])
	}
	if got := s.Len(); got != n/2 {
		t.Fatalf("Len after DEL batch = %d, want %d", got, n/2)
	}
	// Odd positions survive, even positions are gone — on the single path,
	// so batch deletion and single routing agree on shard placement.
	for i, k := range keys {
		_, ok := s.Lookup(k)
		if want := i%2 == 1; ok != want {
			t.Fatalf("Lookup(%d) presence = %v, want %v", k, ok, want)
		}
	}

	st := s.Stats()
	if st.InsertBatches != 1 || st.LookupBatches != 0 || st.DeleteBatches != 1 {
		t.Fatalf("batch counters = {I:%d L:%d D:%d}, want {1 0 1}",
			st.InsertBatches, st.LookupBatches, st.DeleteBatches)
	}
}

// TestShardedApplyBatch drives a large mixed batch through a sharded
// store: the one-pass split must route every entry to its key's shard
// with per-key order preserved, fan out in parallel, and gather results
// back into caller order — checked against a reference run on an
// unsharded store.
func TestShardedApplyBatch(t *testing.T) {
	s := openShardedSCEH(t, 4)
	ref, err := Open(KindEH)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })

	// A deterministic pseudo-random mix, well above the fan-out
	// threshold, with repeated keys so same-key order matters.
	const n = 4096
	var b OpBatch
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		key := rng % 257 // dense: plenty of same-key collisions
		switch rng >> 61 {
		case 0, 1, 2:
			b.Put(key, rng)
		case 3, 4, 5:
			b.Get(key)
		default:
			b.Del(key)
		}
	}
	var got, want OpResults
	if err := s.ApplyBatch(&b, &got); err != nil {
		t.Fatalf("sharded ApplyBatch: %v", err)
	}
	if err := ref.ApplyBatch(&b, &want); err != nil {
		t.Fatalf("reference ApplyBatch: %v", err)
	}
	for i := 0; i < n; i++ {
		if got.Found[i] != want.Found[i] || got.Vals[i] != want.Vals[i] {
			t.Fatalf("entry %d = (%v, %d), reference (%v, %d)",
				i, got.Found[i], got.Vals[i], want.Found[i], want.Vals[i])
		}
	}
	if s.Len() != ref.Len() {
		t.Fatalf("sharded Len %d, reference %d", s.Len(), ref.Len())
	}
}

// TestShardOfCoversAllShards checks the routing hash is total and spreads:
// every shard index is produced, results stay in range, and the function
// is deterministic.
func TestShardOfCoversAllShards(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		hit := make([]int, n)
		for k := uint64(0); k < 4096; k++ {
			sh := hashfn.ShardOf(k, n)
			if sh < 0 || sh >= n {
				t.Fatalf("ShardOf(%d, %d) = %d out of range", k, n, sh)
			}
			if sh != hashfn.ShardOf(k, n) {
				t.Fatalf("ShardOf(%d, %d) not deterministic", k, n)
			}
			hit[sh]++
		}
		for sh, c := range hit {
			if c == 0 {
				t.Fatalf("n=%d: shard %d never hit over 4096 keys", n, sh)
			}
		}
	}
}

// TestShardedStatsAggregation inserts a known population and checks the
// aggregate Stats against the per-shard truth: entries sum, every shard
// holds a share, GlobalDepth is the deepest shard's, and after WaitSync
// the conjunction InSync holds.
func TestShardedStatsAggregation(t *testing.T) {
	const n, shards = 50000, 4
	s := openShardedSCEH(t, shards)
	for i := uint64(0); i < n; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	if !s.WaitSync(30 * time.Second) {
		t.Fatal("shards never synced")
	}

	sh, ok := s.(*sharded)
	if !ok {
		t.Fatalf("Open(WithShards(%d)) returned %T, want *sharded", shards, s)
	}
	sumEntries, maxDepth := 0, uint(0)
	for i, sub := range sh.shards {
		st := sub.Stats()
		if st.Entries == 0 {
			t.Fatalf("shard %d holds no entries — keys are not spreading", i)
		}
		sumEntries += st.Entries
		if st.GlobalDepth > maxDepth {
			maxDepth = st.GlobalDepth
		}
	}
	agg := s.Stats()
	if sumEntries != n || agg.Entries != n {
		t.Fatalf("entries: shards sum to %d, aggregate %d, want %d", sumEntries, agg.Entries, n)
	}
	if agg.GlobalDepth != maxDepth {
		t.Fatalf("aggregate GlobalDepth = %d, want max shard depth %d", agg.GlobalDepth, maxDepth)
	}
	if agg.Kind != KindShortcutEH {
		t.Fatalf("aggregate Kind = %v", agg.Kind)
	}
	if !agg.InSync {
		t.Fatal("aggregate InSync = false after WaitSync reported true")
	}
	if agg.Buckets == 0 || agg.DirectorySlots == 0 {
		t.Fatalf("aggregate shape empty: %+v", agg)
	}
}

// stubStore is a minimal Store for exercising the sharded lifecycle
// without real indexes; Close records the call and returns a fixed error.
type stubStore struct {
	closeErr error
	closed   atomic.Bool
}

func (s *stubStore) Insert(key, value uint64) error        { return nil }
func (s *stubStore) Lookup(key uint64) (uint64, bool)      { return 0, false }
func (s *stubStore) Delete(key uint64) bool                { return false }
func (s *stubStore) Len() int                              { return 0 }
func (s *stubStore) Range(fn func(key, value uint64) bool) {}
func (s *stubStore) ApplyBatch(b *OpBatch, res *OpResults) error {
	res.Reset(b.Len())
	return nil
}
func (s *stubStore) Stats() Stats                        { return Stats{} }
func (s *stubStore) WaitSync(timeout time.Duration) bool { return true }
func (s *stubStore) Kind() Kind                          { return KindShortcutEH }
func (s *stubStore) Close() error {
	s.closed.Store(true)
	return s.closeErr
}

// TestShardedCloseClosesAllOnError checks the Close contract: the first
// shard error (in shard order) is returned, but every shard is still
// closed — an early return would leak the healthy shards' mapped pages.
func TestShardedCloseClosesAllOnError(t *testing.T) {
	errA := errors.New("shard 1 failed")
	errB := errors.New("shard 3 failed")
	stubs := []*stubStore{{}, {closeErr: errA}, {}, {closeErr: errB}, {}}
	shards := make([]Store, len(stubs))
	for i, st := range stubs {
		shards[i] = st
	}
	s := &sharded{kind: KindShortcutEH, shards: shards}

	if err := s.Close(); !errors.Is(err, errA) {
		t.Fatalf("Close = %v, want first shard error %v", err, errA)
	}
	for i, st := range stubs {
		if !st.closed.Load() {
			t.Fatalf("shard %d was not closed after an earlier shard errored", i)
		}
	}
}

// TestShardedLifecycle checks the facade lifecycle contract holds through
// the sharded layer: ops after Close fail with ErrClosed or report "not
// found", and a second Close is a nil no-op.
func TestShardedLifecycle(t *testing.T) {
	s := openShardedSCEH(t, 3)
	if err := s.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Insert(3, 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close = %v, want ErrClosed", err)
	}
	if _, ok := s.Lookup(1); ok {
		t.Fatal("Lookup after Close reported a hit")
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len after Close = %d", got)
	}
	if err := putBatch(s, []uint64{1, 5}, []uint64{2, 6}); !errors.Is(err, ErrClosed) {
		t.Fatalf("PUT batch after Close = %v, want ErrClosed", err)
	}
	if st := s.Stats(); st.Entries != 0 || st.Kind != KindShortcutEH {
		t.Fatalf("Stats after Close = %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
}

// TestShardedConcurrentWriters drives disjoint key ranges from many
// goroutines — single and batch ops mixed — and verifies the full
// population afterwards. Run under -race this is the shard-striping data
// race check.
func TestShardedConcurrentWriters(t *testing.T) {
	const writers, perWriter = 8, 4000
	s := openShardedSCEH(t, 4)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w * perWriter)
			if w%2 == 0 { // half the writers batch, half go single-op
				keys := make([]uint64, perWriter)
				vals := make([]uint64, perWriter)
				for i := range keys {
					keys[i] = base + uint64(i)
					vals[i] = base + uint64(i) + 1
				}
				if err := putBatch(s, keys, vals); err != nil {
					t.Errorf("writer %d: %v", w, err)
				}
				return
			}
			for i := uint64(0); i < perWriter; i++ {
				if err := s.Insert(base+i, base+i+1); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%64 == 0 { // interleave reads with the writes
					s.Lookup(base + i)
				}
			}
		}(w)
	}
	wg.Wait()

	if got := s.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
	for k := uint64(0); k < writers*perWriter; k += 97 {
		if v, ok := s.Lookup(k); !ok || v != k+1 {
			t.Fatalf("Lookup(%d) = (%d, %v), want (%d, true)", k, v, ok, k+1)
		}
	}
}

// TestShardedKindsConformance runs a small insert/lookup/delete workload
// through every kind with sharding enabled — the sharded layer must be
// kind-agnostic.
func TestShardedKindsConformance(t *testing.T) {
	const n = 5000
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			opts := []Option{WithShards(3), WithCapacity(n)}
			if kind == KindShortcutEH {
				opts = append(opts, WithPollInterval(time.Millisecond))
			}
			s, err := Open(kind, opts...)
			if err != nil {
				t.Fatalf("Open(%s, shards=3): %v", kind, err)
			}
			defer s.Close()
			for k := uint64(0); k < n; k++ {
				if err := s.Insert(k, k*3); err != nil {
					t.Fatalf("Insert(%d): %v", k, err)
				}
			}
			s.WaitSync(10 * time.Second)
			for k := uint64(0); k < n; k++ {
				if v, ok := s.Lookup(k); !ok || v != k*3 {
					t.Fatalf("Lookup(%d) = (%d, %v)", k, v, ok)
				}
			}
			if !s.Delete(42) || s.Delete(42) {
				t.Fatal("Delete semantics broken through shards")
			}
			if got := s.Len(); got != n-1 {
				t.Fatalf("Len = %d, want %d", got, n-1)
			}
		})
	}
}

// TestShardedBudgetDivision checks that explicit size budgets are divided
// across shards rather than multiplied by the shard count: the directory
// WithCapacity pre-sizes must total what the unsharded store would
// allocate.
func TestShardedBudgetDivision(t *testing.T) {
	capacity := eh.MaxFill << 10 // 2^10 buckets at the split threshold
	ehSharded, err := Open(KindEH, WithShards(4), WithCapacity(capacity))
	if err != nil {
		t.Fatal(err)
	}
	defer ehSharded.Close()
	// 4 shards of capacity/4 pre-size 4*2^8 = 2^10 slots total.
	if got := ehSharded.Stats().DirectorySlots; got != 1<<10 {
		t.Fatalf("sharded EH pre-sizes %d directory slots, want %d", got, 1<<10)
	}
}

// TestWithShardsValidation checks option validation and the shards=1
// passthrough (which must keep the unsharded store and its table).
func TestWithShardsValidation(t *testing.T) {
	if _, err := Open(KindEH, WithShards(0)); err == nil {
		t.Fatal("WithShards(0) was accepted")
	}
	if _, err := Open(KindEH, WithShards(-4)); err == nil {
		t.Fatal("WithShards(-4) was accepted")
	}
	s, err := Open(KindShortcutEH, WithShards(1), WithPollInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if st, ok := s.(*store); !ok || st.sc == nil {
		t.Fatalf("WithShards(1) returned %T, want the unsharded *store over a Shortcut-EH table", s)
	}
	m, err := Open(KindShortcutEH, WithShards(4), WithPollInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if sh, ok := m.(*sharded); !ok || len(sh.shards) != 4 {
		t.Fatalf("WithShards(4) returned %T, want a 4-shard *sharded", m)
	}
}
