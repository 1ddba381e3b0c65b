package persist_test

import (
	"bytes"
	"testing"

	"vmshortcut"
	"vmshortcut/persist"
)

// TestSnapshotCrossKindPortability pins that a snapshot is a property of
// the KEYSPACE, not of the index that produced it: a stream written from
// one store kind restores into any other kind with identical contents.
// This is what lets an operator change index implementations (or a
// replica run a different kind than its primary) across a snapshot
// boundary without a migration step.
func TestSnapshotCrossKindPortability(t *testing.T) {
	// Keys must fit every kind's constraints; KindRadix bounds the key
	// space by its capacity, so keep keys below it.
	const capacity = 1 << 16
	keys := make([]uint64, 0, 1000)
	vals := make([]uint64, 0, 1000)
	for i := uint64(0); i < 1000; i++ {
		keys = append(keys, (i*7919)%capacity)
		vals = append(vals, i^0xBEEF)
	}
	// %capacity can collide; keep last-write-wins expectations explicit.
	want := make(map[uint64]uint64, len(keys))
	for i, k := range keys {
		want[k] = vals[i]
	}

	kinds := vmshortcut.Kinds()
	snaps := make(map[vmshortcut.Kind][]byte, len(kinds))
	for _, kind := range kinds {
		src, err := vmshortcut.Open(kind, vmshortcut.WithCapacity(capacity))
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

	// Every snapshot restores into every kind — including itself — with
	// the same contents.
	for _, from := range kinds {
		for _, to := range kinds {
			dst, err := vmshortcut.Open(to, vmshortcut.WithCapacity(capacity))
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
