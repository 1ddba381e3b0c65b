//go:build !race

package vmshortcut

import (
	"testing"
	"time"

	"vmshortcut/internal/op"
)

// TestShardedApplyBatchAllocs guards the served batch path: a two-shard
// ApplyBatch of the server's usual shape — 32 entries, 95/5 GET/PUT over
// loaded keys — reuses its routing scratch (route, positions, sub-batches
// and their results) across calls instead of building it per batch. The
// bound is one allocation per call, not zero, since the scratch pool may
// be emptied by a collection mid-run. (The race detector allocates on its
// own, and turns the seqlock read path off, hence the build tag.)
func TestShardedApplyBatchAllocs(t *testing.T) {
	s := openShardedSCEH(t, 2)
	const keys = 1024
	var load op.Batch
	for k := range uint64(keys) {
		load.Put(k, k)
	}
	var res op.Results
	if err := s.ApplyBatch(&load, &res); err != nil {
		t.Fatal(err)
	}
	s.WaitSync(5 * time.Second)

	var b op.Batch
	for i := range uint64(32) {
		k := i * 31 % keys
		if i%20 == 0 {
			b.Put(k, k+1)
		} else {
			b.Get(k)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.ApplyBatch(&b, &res); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per call", allocs)
	if allocs > 1 {
		t.Fatalf("%v allocations per 32-entry ApplyBatch, want ≤ 1", allocs)
	}
}
