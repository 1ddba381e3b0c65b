package vmshortcut

import (
	"errors"
	"sync"
	"testing"
	"time"

	"vmshortcut/internal/op"
	"vmshortcut/internal/sys"
)

// applyUniform applies keys as one batch of k entries (vals is read for
// Put only) and returns the per-entry results.
func applyUniform(s Store, k op.Kind, keys, vals []uint64) (OpResults, error) {
	var b OpBatch
	b.Grow(len(keys))
	for i, key := range keys {
		var v uint64
		if k == op.Put {
			v = vals[i]
		}
		b.Add(k, key, v)
	}
	var res OpResults
	err := s.ApplyBatch(&b, &res)
	return res, err
}

// putBatch upserts the pairs through one all-PUT ApplyBatch.
func putBatch(s Store, keys, vals []uint64) error {
	_, err := applyUniform(s, op.Put, keys, vals)
	return err
}

// getBatch looks the keys up through one all-GET ApplyBatch.
func getBatch(s Store, keys []uint64) OpResults {
	res, _ := applyUniform(s, op.Get, keys, nil)
	return res
}

// delBatch deletes the keys through one all-DEL ApplyBatch and returns
// per-key presence.
func delBatch(s Store, keys []uint64) []bool {
	res, _ := applyUniform(s, op.Del, keys, nil)
	return res.Found
}

// openKinds opens every kind with the options that suit a test
// (shortcut-EH syncs fast with a short poll interval).
func openKinds(tb testing.TB, n int, extra ...Option) map[string]Store {
	tb.Helper()
	out := map[string]Store{}
	for _, k := range Kinds() {
		opts := []Option{WithCapacity(n)}
		if k == KindShortcutEH {
			opts = append(opts, WithPollInterval(time.Millisecond))
		}
		opts = append(opts, extra...)
		s, err := Open(k, opts...)
		if err != nil {
			tb.Fatalf("Open(%s): %v", k, err)
		}
		tb.Cleanup(func() { s.Close() })
		out[k.String()] = s
	}
	return out
}

// TestOpenConformance drives the same insert/lookup/delete/batch workload
// through the Store surface of every kind.
func TestOpenConformance(t *testing.T) {
	const n = 20000
	for name, s := range openKinds(t, n) {
		t.Run(name, func(t *testing.T) {
			// Single-op phase over the first half of the key space.
			for k := uint64(0); k < n/2; k++ {
				if err := s.Insert(k, k*2+1); err != nil {
					t.Fatalf("Insert(%d): %v", k, err)
				}
			}
			// Batch phase over the second half.
			keys := make([]uint64, 0, n/2)
			vals := make([]uint64, 0, n/2)
			for k := uint64(n / 2); k < n; k++ {
				keys = append(keys, k)
				vals = append(vals, k*2+1)
			}
			if err := putBatch(s, keys, vals); err != nil {
				t.Fatalf("PUT batch: %v", err)
			}
			if s.Len() != n {
				t.Fatalf("Len = %d, want %d", s.Len(), n)
			}
			if !s.WaitSync(10 * time.Second) {
				t.Fatal("WaitSync timed out")
			}

			// Single lookups agree with batch lookups.
			all := make([]uint64, n)
			for i := range all {
				all[i] = uint64(i)
			}
			res := getBatch(s, all)
			for i, k := range all {
				v1, ok1 := s.Lookup(k)
				if !ok1 || v1 != k*2+1 {
					t.Fatalf("Lookup(%d) = %d,%v", k, v1, ok1)
				}
				if !res.Found[i] || res.Vals[i] != v1 {
					t.Fatalf("GET batch[%d] = %d,%v, want %d", i, res.Vals[i], res.Found[i], v1)
				}
			}
			if _, ok := s.Lookup(n + 1); ok {
				t.Fatal("lookup of absent key reported present")
			}

			// Delete semantics: once true, then false.
			if !s.Delete(5) || s.Delete(5) {
				t.Fatal("delete semantics broken")
			}
			if s.Len() != n-1 {
				t.Fatalf("Len after delete = %d", s.Len())
			}

			// A DEL batch agrees with single deletes: present keys report
			// true (including a duplicate that is gone by its second
			// occurrence), already-deleted keys false.
			dels := []uint64{7, 8, 5, 7}
			wantOK := []bool{true, true, false, false}
			delOK := delBatch(s, dels)
			for i := range dels {
				if delOK[i] != wantOK[i] {
					t.Fatalf("DEL batch[%d] (key %d) = %v, want %v", i, dels[i], delOK[i], wantOK[i])
				}
			}
			if s.Len() != n-3 {
				t.Fatalf("Len after DEL batch = %d, want %d", s.Len(), n-3)
			}
			if _, ok := s.Lookup(7); ok {
				t.Fatal("key 7 still present after DEL batch")
			}

			// Stats carries the kind, the live entry count, and the batch
			// run counters everywhere: each uniform batch is one run.
			st := s.Stats()
			if st.Kind.String() != name || st.Entries != n-3 {
				t.Fatalf("Stats = {Kind:%s Entries:%d}, want {%s %d}", st.Kind, st.Entries, name, n-3)
			}
			if st.InsertBatches != 1 || st.LookupBatches != 1 || st.DeleteBatches != 1 {
				t.Fatalf("batch counters = {I:%d L:%d D:%d}, want {1 1 1}",
					st.InsertBatches, st.LookupBatches, st.DeleteBatches)
			}
		})
	}
}

// TestApplyBatchConformance drives a mixed operation batch — including
// same-key sequences whose per-entry order is observable — through every
// kind, plain and concurrent. ApplyBatch is the serving stack's one
// execution path, so its semantics must match running the entries one by
// one.
func TestApplyBatchConformance(t *testing.T) {
	const n = 4096
	run := func(t *testing.T, s Store) {
		var b OpBatch
		b.Put(1, 10) // 0: accepted
		b.Get(1)     // 1: 10
		b.Put(1, 11) // 2: accepted — overwrites after the read
		b.Get(1)     // 3: 11
		b.Del(1)     // 4: found
		b.Get(1)     // 5: miss
		b.Del(1)     // 6: miss
		for k := uint64(100); k < 140; k++ {
			b.Put(k, k*2) // a long uniform run: one PUT batch in Stats
		}
		for k := uint64(100); k < 140; k++ {
			b.Get(k) // a long uniform run: one GET batch in Stats
		}
		var res OpResults
		if err := s.ApplyBatch(&b, &res); err != nil {
			t.Fatalf("ApplyBatch: %v", err)
		}
		wantFound := []bool{true, true, true, true, true, false, false}
		wantVals := []uint64{0, 10, 0, 11, 0, 0, 0}
		for i := range wantFound {
			if res.Found[i] != wantFound[i] || res.Vals[i] != wantVals[i] {
				t.Fatalf("entry %d = (%v, %d), want (%v, %d)",
					i, res.Found[i], res.Vals[i], wantFound[i], wantVals[i])
			}
		}
		for i := 0; i < 40; i++ {
			put, get := 7+i, 47+i
			if !res.Found[put] || !res.Found[get] || res.Vals[get] != uint64(100+i)*2 {
				t.Fatalf("run entries %d/%d = (%v, %v, %d)", put, get,
					res.Found[put], res.Found[get], res.Vals[get])
			}
		}
		// The multi-entry runs show in the batch counters.
		st := s.Stats()
		if st.InsertBatches == 0 || st.LookupBatches == 0 {
			t.Fatalf("multi-entry runs did not count as batches: %+v", st)
		}
		// An empty batch is a no-op.
		var empty OpBatch
		if err := s.ApplyBatch(&empty, &res); err != nil || len(res.Found) != 0 {
			t.Fatalf("empty ApplyBatch = %v, %d results", err, len(res.Found))
		}
	}
	for name, s := range openKinds(t, n) {
		t.Run(name, func(t *testing.T) { run(t, s) })
	}
	for name, s := range openKinds(t, n, WithConcurrency(true)) {
		t.Run(name+"/concurrent", func(t *testing.T) { run(t, s) })
	}
}

// TestApplyBatchClosed pins the lifecycle contract: ApplyBatch on a
// closed store fails with ErrClosed and zeroed results.
func TestApplyBatchClosed(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithConcurrency(true)}} {
		s, err := Open(KindEH, opts...)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		var b OpBatch
		b.Put(1, 2)
		b.Get(1)
		var res OpResults
		if err := s.ApplyBatch(&b, &res); !errors.Is(err, ErrClosed) {
			t.Fatalf("ApplyBatch after Close = %v, want ErrClosed", err)
		}
		if len(res.Found) != 2 || res.Found[0] || res.Found[1] {
			t.Fatalf("closed ApplyBatch results = %+v", res)
		}
	}
}

// TestApplyBatchUnitFailure pins the unit-failure contract: a rejected
// insert (a bucket split the page pool cannot grow for) fails the whole
// batch with the insert error, even though the other entries executed —
// the entries after it included, whose results are filled in as usual.
func TestApplyBatchUnitFailure(t *testing.T) {
	for name, opts := range map[string][]Option{
		"plain":      nil,
		"concurrent": {WithConcurrency(true)},
		"shards=2":   {WithShards(2)},
	} {
		t.Run(name, func(t *testing.T) {
			s, err := Open(KindEH, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Each pool holds its first chunk of pages now; refuse to grow
			// any pool file past it.
			sys.SetFaultHook(func(o sys.Op) error {
				if o == sys.OpFtruncate {
					return errors.New("injected ftruncate failure")
				}
				return nil
			})
			defer sys.SetFaultHook(nil)
			// Fill until a bucket cannot split; upserts of stored keys
			// still fit, the refused key is refused again.
			rejected := uint64(0)
			for ; s.Insert(rejected, rejected) == nil; rejected++ {
			}
			if rejected < 3 {
				t.Fatalf("pool refused key %d already", rejected)
			}
			var b OpBatch
			b.Put(1, 10)
			b.Put(rejected, 1)
			b.Get(1)
			b.Put(2, 20)
			b.Get(2)
			b.Get(rejected)
			var res OpResults
			if err := s.ApplyBatch(&b, &res); err == nil {
				t.Fatal("ApplyBatch accepted an insert the pool cannot hold")
			}
			wantFound := []bool{true, false, true, true, true, false}
			wantVals := []uint64{0, 0, 10, 0, 20, 0}
			for i := range wantFound {
				if res.Found[i] != wantFound[i] || res.Vals[i] != wantVals[i] {
					t.Fatalf("entry %d = (%v, %d), want (%v, %d)",
						i, res.Found[i], res.Vals[i], wantFound[i], wantVals[i])
				}
			}
		})
	}
}

// TestOpenErrors exercises Open's failure paths.
func TestOpenErrors(t *testing.T) {
	if _, err := Open(Kind(99)); err == nil {
		t.Fatal("Open(unknown kind) succeeded")
	}
	if _, err := Open(KindEH, WithCapacity(-1)); err == nil {
		t.Fatal("WithCapacity(-1) accepted")
	}
	for _, name := range []string{"btree", "ht", "hti", "ch", "radix"} {
		if _, err := ParseKind(name); err == nil {
			t.Fatalf("ParseKind accepted %q", name)
		}
	}
	for _, k := range Kinds() {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), back, err)
		}
	}
}

// TestStoreClose verifies the uniform lifecycle: Close is idempotent for
// every kind and operations on a closed store fail with ErrClosed.
func TestStoreClose(t *testing.T) {
	const n = 1000
	for name, s := range openKinds(t, n) {
		t.Run(name, func(t *testing.T) {
			if err := s.Insert(1, 2); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if err := s.Insert(3, 4); !errors.Is(err, ErrClosed) {
				t.Fatalf("Insert after Close = %v, want ErrClosed", err)
			}
			if err := putBatch(s, []uint64{3, 5}, []uint64{4, 6}); !errors.Is(err, ErrClosed) {
				t.Fatalf("PUT batch after Close = %v, want ErrClosed", err)
			}
			if _, ok := s.Lookup(1); ok {
				t.Fatal("Lookup after Close reported present")
			}
			if res := getBatch(s, []uint64{1, 1}); res.Found[0] {
				t.Fatal("GET batch after Close reported present")
			}
			if s.Delete(1) || s.Len() != 0 {
				t.Fatal("Delete/Len after Close not inert")
			}
			if st := s.Stats(); st.Entries != 0 || st.Kind.String() != name {
				t.Fatalf("Stats after Close = %+v", st)
			}
		})
	}
}

// TestOpenConcurrency smoke-tests WithConcurrency across kinds: concurrent
// writers and readers, then a consistent final state.
func TestOpenConcurrency(t *testing.T) {
	const n = 4000
	const writers = 4
	for name, s := range openKinds(t, n, WithConcurrency(true)) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for k := uint64(w); k < n; k += writers {
						if err := s.Insert(k, k+1); err != nil {
							t.Errorf("Insert(%d): %v", k, err)
							return
						}
					}
				}(w)
				wg.Add(1)
				go func() {
					defer wg.Done()
					keys := make([]uint64, 64)
					for i := range keys {
						keys[i] = uint64(i * 7 % n)
					}
					for r := 0; r < 50; r++ {
						getBatch(s, keys)
					}
				}()
			}
			wg.Wait()
			if s.Len() != n {
				t.Fatalf("Len = %d, want %d", s.Len(), n)
			}
			for k := uint64(0); k < n; k += 97 {
				if v, ok := s.Lookup(k); !ok || v != k+1 {
					t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
				}
			}
		})
	}
}

// TestConcurrentCloseUnderFire closes a WithConcurrency store while
// readers are mid-flight: the wrapper must drain them before the backing
// pool is unmapped, and late operations must observe the closed state
// instead of dereferencing released memory.
func TestConcurrentCloseUnderFire(t *testing.T) {
	for _, kind := range []Kind{KindEH, KindShortcutEH} {
		t.Run(kind.String(), func(t *testing.T) {
			s, err := Open(kind, WithConcurrency(true), WithPollInterval(time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			const n = 50000
			for k := uint64(0); k < n; k++ {
				if err := s.Insert(k, k+1); err != nil {
					t.Fatal(err)
				}
			}
			s.WaitSync(10 * time.Second)

			var wg sync.WaitGroup
			for r := 0; r < 8; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					keys := make([]uint64, 256)
					for i := range keys {
						keys[i] = uint64((i * 31) % n)
					}
					for i := 0; ; i++ {
						if i%2 == 0 {
							getBatch(s, keys)
						} else if _, ok := s.Lookup(uint64(r)); !ok {
							return // closed observed
						}
					}
				}(r)
			}
			time.Sleep(2 * time.Millisecond)
			if err := s.Close(); err != nil {
				t.Fatalf("Close under fire: %v", err)
			}
			wg.Wait()
		})
	}
}

// TestOpenShortcutRouting checks the paper-facing behavior survives the
// facade: after sync, lookups route through the shortcut directory.
func TestOpenShortcutRouting(t *testing.T) {
	s, err := Open(KindShortcutEH, WithPollInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for k := uint64(1); k <= 50000; k++ {
		if err := s.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if !s.WaitSync(10 * time.Second) {
		t.Fatal("never synced")
	}
	st := s.Stats()
	if !st.InSync || !st.UsingShortcut {
		t.Fatalf("Stats after sync: InSync=%v UsingShortcut=%v", st.InSync, st.UsingShortcut)
	}
	before := st.ShortcutLookups
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i + 1)
	}
	res := getBatch(s, keys)
	for i, ok := range res.Found {
		if !ok || res.Vals[i] != keys[i] {
			t.Fatalf("GET batch[%d] = %d,%v", i, res.Vals[i], ok)
		}
	}
	if got := s.Stats().ShortcutLookups; got != before+1024 {
		t.Fatalf("shortcut lookups = %d, want %d", got, before+1024)
	}
}
