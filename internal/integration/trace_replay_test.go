package integration_test

import (
	"testing"
	"time"

	"vmshortcut"
	"vmshortcut/internal/workload"
)

// TestTraceReplayThroughShardedStore replays an interleaved sequence of
// inserts, lookups and deletes through a 4-shard store and verifies the
// surviving population key by key: every op must reach the shard that
// owns its key, and a delete must not disturb a neighbour's entry.
func TestTraceReplayThroughShardedStore(t *testing.T) {
	s, err := vmshortcut.Open(vmshortcut.KindShortcutEH,
		vmshortcut.WithShards(4), vmshortcut.WithPollInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const n = 5000
	lookups, hits := 0, 0
	for i := uint64(0); i < n; i++ {
		k := workload.Key(7, i)
		if err := s.Insert(k, i); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			lookups++
			if _, ok := s.Lookup(k); ok {
				hits++
			}
		}
		if i%3 == 0 {
			s.Delete(k)
		}
	}
	if hits != lookups {
		t.Fatalf("%d of %d lookups after an insert missed: ops lost or misrouted", lookups-hits, lookups)
	}

	// Survivors: every index not divisible by 3.
	wantLen := 0
	for i := uint64(0); i < n; i++ {
		k := workload.Key(7, i)
		v, ok := s.Lookup(k)
		if i%3 == 0 {
			if ok {
				t.Fatalf("deleted key %d (index %d) still present", k, i)
			}
			continue
		}
		wantLen++
		if !ok || v != i {
			t.Fatalf("Lookup(%d) = (%d, %v), want (%d, true)", k, v, ok, i)
		}
	}
	if got := s.Len(); got != wantLen {
		t.Fatalf("Len = %d, want %d", got, wantLen)
	}
}
