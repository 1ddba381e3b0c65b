package vmshortcut

import (
	"testing"
	"time"

	"vmshortcut/internal/op"
)

// TestRoutingCountsEveryBatchedGet checks that the routing counters stay
// exact on the batch path, where Shortcut-EH routes and counts a run of
// GETs once: ShortcutLookups + TraditionalLookups grows by exactly the
// GET entries applied, on pure-GET and mixed batches, for a plain, a
// WithConcurrency and a two-shard store, with the shortcut in sync (every
// GET through it) and right after a doubling (the stale shortcut routes
// GETs to the traditional directory). The batch-run counters still count
// each batch's same-kind runs (op.CountRuns). The hour-long poll interval
// keeps the mapper from catching up on its own: only WaitSync syncs.
func TestRoutingCountsEveryBatchedGet(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"concurrent", []Option{WithConcurrency(true)}},
		{"shards=2", []Option{WithShards(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(KindShortcutEH, append(tc.opts, WithPollInterval(time.Hour))...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			const n = 4096
			for k := uint64(0); k < n; k++ {
				if err := s.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			// Pure GETs, then a mix whose PUTs overwrite and whose DELs
			// cannot split a bucket, so the directory stays as it is.
			var pure, mixed op.Batch
			for k := uint64(0); k < 32; k++ {
				pure.Get(k * 97 % n)
			}
			for i, k := range []op.Kind{op.Get, op.Put, op.Get, op.Get, op.Get, op.Del, op.Del,
				op.Get, op.Put, op.Put, op.Get, op.Get, op.Get, op.Get, op.Get, op.Del, op.Get} {
				key := uint64(i*131) % n
				mixed.Add(k, key, key)
			}
			var res op.Results
			apply := func(b *op.Batch) (sc, trad uint64) {
				t.Helper()
				before := s.Stats()
				if err := s.ApplyBatch(b, &res); err != nil {
					t.Fatal(err)
				}
				after := s.Stats()
				runs := op.CountRuns(b.Kinds())
				if after.LookupBatches-before.LookupBatches != runs[op.Get] ||
					after.InsertBatches-before.InsertBatches != runs[op.Put] ||
					after.DeleteBatches-before.DeleteBatches != runs[op.Del] {
					t.Fatalf("batch runs moved by %d/%d/%d, want %v (GET/PUT/DEL)",
						after.LookupBatches-before.LookupBatches, after.InsertBatches-before.InsertBatches,
						after.DeleteBatches-before.DeleteBatches, runs)
				}
				sc = after.ShortcutLookups - before.ShortcutLookups
				trad = after.TraditionalLookups - before.TraditionalLookups
				if sc+trad != uint64(b.Gets()) {
					t.Fatalf("routing counters moved by %d + %d for %d GET entries", sc, trad, b.Gets())
				}
				return sc, trad
			}

			if !s.WaitSync(10 * time.Second) {
				t.Fatal("shortcut never synced")
			}
			for _, b := range []*op.Batch{&pure, &mixed} {
				if sc, trad := apply(b); sc != uint64(b.Gets()) || trad != 0 {
					t.Fatalf("in sync: %d shortcut and %d traditional lookups, want all %d through the shortcut", sc, trad, b.Gets())
				}
			}

			depth := s.Stats().GlobalDepth
			for k := uint64(n); s.Stats().GlobalDepth == depth; k++ {
				if err := s.Insert(k, k); err != nil {
					t.Fatal(err)
				}
			}
			for _, b := range []*op.Batch{&pure, &mixed} {
				if _, trad := apply(b); trad == 0 {
					t.Fatal("after a doubling: no GET took the traditional directory")
				}
			}
		})
	}
}
