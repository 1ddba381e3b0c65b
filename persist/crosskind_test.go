package persist_test

import (
	"bytes"
	"testing"

	"vmshortcut"
	"vmshortcut/internal/workload"
	"vmshortcut/persist"
)

// TestSnapshotCrossKindPortability pins that a snapshot is a property of
// the KEYSPACE, not of the index that produced it: a stream written from
// one store kind (EH or Shortcut-EH) restores into the other with
// identical contents. This is what lets an operator change index
// implementations (or a replica run a different kind than its primary)
// across a snapshot boundary without a migration step. Keys span the
// full 64 bits: key 0, keys with the top bit set, and splitmix keys.
func TestSnapshotCrossKindPortability(t *testing.T) {
	keys := []uint64{0, 1, 1 << 63, 1<<63 | 1, ^uint64(0)}
	rng := workload.NewRNG(7)
	for len(keys) < 10_005 {
		keys = append(keys, rng.Next())
	}
	vals := make([]uint64, len(keys))
	for i, k := range keys {
		vals[i] = k ^ 0xBEEF
	}
	want := make(map[uint64]uint64, len(keys))
	topBit := 0
	for i, k := range keys {
		want[k] = vals[i]
		if k>>63 != 0 {
			topBit++
		}
	}
	if len(want) < 10_000 || topBit < 1000 {
		t.Fatalf("keyspace has %d distinct keys, %d with the top bit set", len(want), topBit)
	}

	kinds := vmshortcut.Kinds()
	snaps := make(map[vmshortcut.Kind][]byte, len(kinds))
	for _, kind := range kinds {
		src, err := vmshortcut.Open(kind)
		if err != nil {
			t.Fatalf("%v: Open: %v", kind, err)
		}
		var b vmshortcut.OpBatch
		for i, k := range keys {
			b.Put(k, vals[i])
		}
		var res vmshortcut.OpResults
		if err := src.ApplyBatch(&b, &res); err != nil {
			t.Fatalf("%v: ApplyBatch: %v", kind, err)
		}
		var buf bytes.Buffer
		if err := persist.Snapshot(&buf, src); err != nil {
			t.Fatalf("%v: Snapshot: %v", kind, err)
		}
		snaps[kind] = buf.Bytes()
		if err := src.Close(); err != nil {
			t.Fatalf("%v: Close: %v", kind, err)
		}
	}

	// Every snapshot restores into both kinds — its own included — with
	// the same contents.
	for _, from := range kinds {
		for _, to := range kinds {
			dst, err := vmshortcut.Open(to)
			if err != nil {
				t.Fatalf("%v→%v: Open: %v", from, to, err)
			}
			n, err := persist.RestoreInto(bytes.NewReader(snaps[from]), dst)
			if err != nil {
				t.Fatalf("%v→%v: Restore: %v", from, to, err)
			}
			if int(n) != len(want) || dst.Len() != len(want) {
				t.Fatalf("%v→%v: restored %d pairs, store holds %d, want %d",
					from, to, n, dst.Len(), len(want))
			}
			for k, v := range want {
				got, ok := dst.Lookup(k)
				if !ok || got != v {
					t.Fatalf("%v→%v: key %d = (%d,%v), want (%d,true)", from, to, k, got, ok, v)
				}
			}
			if err := dst.Close(); err != nil {
				t.Fatalf("%v→%v: Close: %v", from, to, err)
			}
		}
	}
}
