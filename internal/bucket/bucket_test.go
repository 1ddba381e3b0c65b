package bucket

import (
	"testing"
	"testing/quick"
	"unsafe"

	"vmshortcut/internal/hashfn"
)

// view wraps a heap page as a bucket, as ViewAddr does a mapped one.
func view(page []byte) Bucket {
	return Bucket{w: unsafe.Slice((*uint64)(unsafe.Pointer(&page[0])), wordsPerPage)}
}

func newBucket() Bucket {
	b := view(make([]byte, 4096))
	b.Reset(0)
	return b
}

func TestInsertLookup(t *testing.T) {
	b := newBucket()
	keys := []uint64{1, 7, 42, 1 << 40, ^uint64(0)}
	for i, k := range keys {
		if !b.Insert(k, uint64(i)*10) {
			t.Fatalf("Insert(%d) failed", k)
		}
	}
	if b.Count() != len(keys) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(keys))
	}
	for i, k := range keys {
		v, ok := b.Lookup(k)
		if !ok || v != uint64(i)*10 {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	if _, ok := b.Lookup(999); ok {
		t.Fatal("absent key found")
	}
}

func TestZeroKey(t *testing.T) {
	b := newBucket()
	if _, ok := b.Lookup(0); ok {
		t.Fatal("zero key present in empty bucket")
	}
	if !b.Insert(0, 77) {
		t.Fatal("Insert(0) failed")
	}
	if v, ok := b.Lookup(0); !ok || v != 77 {
		t.Fatalf("Lookup(0) = %d,%v", v, ok)
	}
	if b.Count() != 1 {
		t.Fatalf("Count = %d", b.Count())
	}
	// Upsert must not bump the count.
	b.Insert(0, 78)
	if v, _ := b.Lookup(0); v != 78 || b.Count() != 1 {
		t.Fatal("zero-key upsert broken")
	}
	if !b.Delete(0) {
		t.Fatal("Delete(0) failed")
	}
	if _, ok := b.Lookup(0); ok || b.Count() != 0 {
		t.Fatal("zero key survived delete")
	}
	if b.Delete(0) {
		t.Fatal("second Delete(0) should fail")
	}
}

func TestUpsertKeepsCount(t *testing.T) {
	b := newBucket()
	b.Insert(5, 1)
	b.Insert(5, 2)
	if b.Count() != 1 {
		t.Fatalf("Count = %d after upsert", b.Count())
	}
	if v, _ := b.Lookup(5); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
}

func TestFillToCapacity(t *testing.T) {
	b := newBucket()
	var k uint64
	inserted := 0
	for k = 1; inserted < Capacity-1; k++ {
		if b.Insert(k, k) {
			inserted++
		} else {
			t.Fatalf("Insert failed at %d/%d", inserted, Capacity)
		}
	}
	b.Insert(0, 0)
	inserted++
	if b.Count() != Capacity || !b.Full() {
		t.Fatalf("Count = %d, Full = %v", b.Count(), b.Full())
	}
	if b.Insert(k+1, 1) {
		t.Fatal("Insert into full bucket should fail")
	}
	// Upsert of an existing key must still succeed when full.
	if !b.Insert(1, 999) {
		t.Fatal("upsert into full bucket should succeed")
	}
	if v, _ := b.Lookup(1); v != 999 {
		t.Fatal("upsert lost value")
	}
	// All entries must still be findable at capacity (wrap-around probes).
	for i := uint64(1); i < k; i++ {
		if _, ok := b.Lookup(i); !ok {
			t.Fatalf("key %d lost at capacity", i)
		}
	}
}

func TestDeleteBackwardShift(t *testing.T) {
	b := newBucket()
	// Fill densely so clusters form, then delete half and verify the rest.
	const n = 200
	for k := uint64(1); k <= n; k++ {
		b.Insert(k, k*2)
	}
	for k := uint64(1); k <= n; k += 2 {
		if !b.Delete(k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	for k := uint64(1); k <= n; k++ {
		v, ok := b.Lookup(k)
		if k%2 == 1 {
			if ok {
				t.Fatalf("deleted key %d still present", k)
			}
		} else if !ok || v != k*2 {
			t.Fatalf("surviving key %d broken: %d,%v", k, v, ok)
		}
	}
	if b.Count() != n/2 {
		t.Fatalf("Count = %d, want %d", b.Count(), n/2)
	}
	// Reinsertion into freed space must work.
	for k := uint64(1); k <= n; k += 2 {
		if !b.Insert(k, k+1) {
			t.Fatalf("reinsert %d failed", k)
		}
	}
	if b.Count() != n {
		t.Fatalf("Count = %d after reinsert", b.Count())
	}
}

func TestForEachVisitsAll(t *testing.T) {
	b := newBucket()
	want := map[uint64]uint64{0: 5, 3: 6, 9: 7, 1 << 50: 8}
	for k, v := range want {
		b.Insert(k, v)
	}
	got := map[uint64]uint64{}
	b.ForEach(func(k, v uint64) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("entry %d = %d, want %d", k, got[k], v)
		}
	}
	// Early stop.
	visits := 0
	b.ForEach(func(k, v uint64) bool {
		visits++
		return false
	})
	if visits != 1 {
		t.Fatalf("early stop visited %d", visits)
	}
}

func TestResetClears(t *testing.T) {
	b := newBucket()
	b.Insert(1, 2)
	b.Insert(0, 3)
	b.Reset(7)
	if b.Count() != 0 || b.LocalDepth() != 7 {
		t.Fatalf("after Reset: count=%d depth=%d", b.Count(), b.LocalDepth())
	}
	if _, ok := b.Lookup(1); ok {
		t.Fatal("entry survived Reset")
	}
}

func TestSplitInto(t *testing.T) {
	b := newBucket()
	b.SetLocalDepth(2)
	const n = 80
	for k := uint64(0); k < n; k++ {
		b.Insert(k, k+1000)
	}
	d0, d1 := newBucket(), newBucket()
	n0, n1 := b.SplitInto(d0, d1)
	if n0+n1 != n {
		t.Fatalf("split lost entries: %d + %d != %d", n0, n1, n)
	}
	if d0.LocalDepth() != 3 || d1.LocalDepth() != 3 {
		t.Fatalf("child depths = %d, %d, want 3", d0.LocalDepth(), d1.LocalDepth())
	}
	for k := uint64(0); k < n; k++ {
		bit := hashfn.SplitBit(hashfn.Hash(k), 2)
		dst := d0
		other := d1
		if bit == 1 {
			dst, other = d1, d0
		}
		if v, ok := dst.Lookup(k); !ok || v != k+1000 {
			t.Fatalf("key %d missing from split side %d", k, bit)
		}
		if _, ok := other.Lookup(k); ok {
			t.Fatalf("key %d leaked to wrong side", k)
		}
	}
}

func TestLocalDepthPersistsInPage(t *testing.T) {
	page := make([]byte, 4096)
	view(page).Reset(5)
	// A second view over the same page must observe the same header.
	if view(page).LocalDepth() != 5 {
		t.Fatal("local depth not stored in the page itself")
	}
}

// TestQuickModelEquivalence drives random operation sequences against a
// map model.
func TestQuickModelEquivalence(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint16 // small key space to force collisions and clusters
		Val  uint64
	}
	check := func(ops []op) bool {
		b := newBucket()
		model := map[uint64]uint64{}
		for _, o := range ops {
			k := uint64(o.Key % 512)
			switch o.Kind % 3 {
			case 0:
				if len(model) >= Capacity {
					continue
				}
				if !b.Insert(k, o.Val) {
					return false
				}
				model[k] = o.Val
			case 1:
				v, ok := b.Lookup(k)
				mv, mok := model[k]
				if ok != mok || (ok && v != mv) {
					return false
				}
			case 2:
				ok := b.Delete(k)
				_, mok := model[k]
				if ok != mok {
					return false
				}
				delete(model, k)
			}
			if b.Count() != len(model) {
				return false
			}
		}
		for k, v := range model {
			got, ok := b.Lookup(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBucketInsert(b *testing.B) {
	bk := newBucket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if bk.Count() > 80 {
			bk.Reset(0)
		}
		bk.Insert(uint64(i)|1, 1)
	}
}

func BenchmarkBucketLookup(b *testing.B) {
	bk := newBucket()
	for k := uint64(1); k <= 80; k++ {
		bk.Insert(k, k)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bk.Lookup(uint64(i%80) + 1)
	}
}
