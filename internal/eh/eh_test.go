package eh

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vmshortcut/internal/bucket"
	"vmshortcut/internal/hashfn"
	"vmshortcut/internal/pool"
)

func newPool(t testing.TB) *pool.Pool {
	t.Helper()
	p, err := pool.New(pool.Config{GrowChunkPages: 32, MaxPages: 1 << 18})
	if err != nil {
		t.Fatalf("pool.New: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func newTable(t testing.TB, cfg Config) *Table {
	t.Helper()
	tbl, err := New(newPool(t), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return tbl
}

func TestEmptyTable(t *testing.T) {
	tbl := newTable(t, Config{})
	if tbl.Len() != 0 || tbl.GlobalDepth() != 0 || tbl.DirSize() != 1 || tbl.Buckets() != 1 {
		t.Fatalf("fresh table: len=%d gd=%d dir=%d buckets=%d",
			tbl.Len(), tbl.GlobalDepth(), tbl.DirSize(), tbl.Buckets())
	}
	if _, ok := tbl.Lookup(42); ok {
		t.Fatal("lookup in empty table succeeded")
	}
}

func TestInsertLookupSmall(t *testing.T) {
	tbl := newTable(t, Config{})
	for k := uint64(0); k < 50; k++ {
		if err := tbl.Insert(k, k*3); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if tbl.Len() != 50 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	for k := uint64(0); k < 50; k++ {
		v, ok := tbl.Lookup(k)
		if !ok || v != k*3 {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestUpsert(t *testing.T) {
	tbl := newTable(t, Config{})
	tbl.Insert(9, 1)
	tbl.Insert(9, 2)
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d after upsert", tbl.Len())
	}
	if v, _ := tbl.Lookup(9); v != 2 {
		t.Fatalf("value = %d", v)
	}
}

func TestGrowthThroughSplitsAndDoubles(t *testing.T) {
	tbl := newTable(t, Config{})
	const n = 20000
	for k := uint64(0); k < n; k++ {
		if err := tbl.Insert(k, k+1); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if tbl.Len() != n {
		t.Fatalf("Len = %d, want %d", tbl.Len(), n)
	}
	if tbl.Splits == 0 || tbl.Doubles == 0 {
		t.Fatalf("expected structural growth, splits=%d doubles=%d", tbl.Splits, tbl.Doubles)
	}
	if tbl.DirSize() != 1<<tbl.GlobalDepth() {
		t.Fatalf("dir size %d != 2^%d", tbl.DirSize(), tbl.GlobalDepth())
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tbl.Lookup(k)
		if !ok || v != k+1 {
			t.Fatalf("Lookup(%d) after growth = %d,%v", k, v, ok)
		}
	}
	// Absent keys must miss.
	for k := uint64(n); k < n+1000; k++ {
		if _, ok := tbl.Lookup(k); ok {
			t.Fatalf("phantom key %d", k)
		}
	}
}

func TestBucketLoadRespectsThreshold(t *testing.T) {
	tbl := newTable(t, Config{})
	for k := uint64(0); k < 50000; k++ {
		tbl.Insert(k, k)
	}
	loadLimit := 0.35
	maxFill := int(loadLimit * float64(bucket.Capacity))
	for i := uint64(0); i < uint64(tbl.DirSize()); i++ {
		b := bucket.ViewAddr(tbl.DirAddr(i))
		if b.Count() > maxFill {
			t.Fatalf("bucket at slot %d holds %d > %d entries", i, b.Count(), maxFill)
		}
	}
}

func TestDirectoryInvariants(t *testing.T) {
	tbl := newTable(t, Config{})
	for k := uint64(0); k < 30000; k++ {
		tbl.Insert(k*2654435761, k)
	}
	gd := tbl.GlobalDepth()
	// Every bucket with local depth ld must be referenced by exactly
	// 2^(gd-ld) contiguous, prefix-aligned slots.
	seen := map[uintptr]bool{}
	buckets := 0
	for i := uint64(0); i < uint64(tbl.DirSize()); {
		addr := tbl.DirAddr(i)
		b := bucket.ViewAddr(addr)
		ld := b.LocalDepth()
		if ld > gd {
			t.Fatalf("slot %d: local depth %d > global %d", i, ld, gd)
		}
		span := uint64(1) << (gd - ld)
		if i%span != 0 {
			t.Fatalf("slot %d not aligned to its span %d", i, span)
		}
		for j := i; j < i+span; j++ {
			if tbl.DirAddr(j) != addr {
				t.Fatalf("slot %d should share bucket with slot %d", j, i)
			}
		}
		if !seen[addr] {
			seen[addr] = true
			buckets++
		}
		i += span
	}
	if buckets != tbl.Buckets() {
		t.Fatalf("observed %d buckets, table claims %d", buckets, tbl.Buckets())
	}
}

func TestEntriesLandInPrefixBucket(t *testing.T) {
	tbl := newTable(t, Config{})
	for k := uint64(0); k < 10000; k++ {
		tbl.Insert(k, k)
	}
	gd := tbl.GlobalDepth()
	for i := uint64(0); i < uint64(tbl.DirSize()); i++ {
		b := bucket.ViewAddr(tbl.DirAddr(i))
		ld := b.LocalDepth()
		b.ForEach(func(k, v uint64) bool {
			h := hashfn.Hash(k)
			if hashfn.DirIndex(h, ld) != hashfn.DirIndex(h, gd)>>(gd-ld) {
				t.Errorf("key %d stored in bucket with wrong %d-bit prefix", k, ld)
				return false
			}
			return true
		})
	}
}

func TestDelete(t *testing.T) {
	tbl := newTable(t, Config{})
	const n = 5000
	for k := uint64(0); k < n; k++ {
		tbl.Insert(k, k)
	}
	for k := uint64(0); k < n; k += 3 {
		if !tbl.Delete(k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	if tbl.Delete(n + 100) {
		t.Fatal("Delete of absent key succeeded")
	}
	want := n - (n+2)/3
	if tbl.Len() != want {
		t.Fatalf("Len = %d, want %d", tbl.Len(), want)
	}
	for k := uint64(0); k < n; k++ {
		_, ok := tbl.Lookup(k)
		if k%3 == 0 && ok {
			t.Fatalf("deleted key %d still present", k)
		}
		if k%3 != 0 && !ok {
			t.Fatalf("key %d lost", k)
		}
	}
}

func TestVersionCountsModifications(t *testing.T) {
	tbl := newTable(t, Config{})
	if tbl.Version() != 0 {
		t.Fatal("fresh version should be 0")
	}
	for k := uint64(0); k < 5000; k++ {
		tbl.Insert(k, k)
	}
	if got, want := tbl.Version(), uint64(tbl.Splits+tbl.Doubles); got != want {
		t.Fatalf("version %d != splits+doubles %d", got, want)
	}
	if tbl.Version() == 0 {
		t.Fatal("version should have advanced")
	}
}

func TestEventsReplayDirectory(t *testing.T) {
	// Replaying the event stream must reconstruct the directory exactly —
	// the property sceh's shortcut maintenance relies on.
	p := newPool(t)
	tbl, err := New(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var replay []pool.Ref
	var lastVer uint64
	tbl.SetEventFunc(func(e Event) {
		switch ev := e.(type) {
		case DoubleEvent:
			replay = make([]pool.Ref, len(ev.Refs))
			copy(replay, ev.Refs)
			lastVer = ev.Version
		case SplitEvent:
			for s := ev.Lo0; s < ev.Hi0; s++ {
				replay[s] = ev.Ref0
			}
			for s := ev.Lo1; s < ev.Hi1; s++ {
				replay[s] = ev.Ref1
			}
			lastVer = ev.Version
		}
	})
	for k := uint64(0); k < 30000; k++ {
		if err := tbl.Insert(k*0x9E3779B9, k); err != nil {
			t.Fatal(err)
		}
	}
	if lastVer != tbl.Version() {
		t.Fatalf("replay version %d != table version %d", lastVer, tbl.Version())
	}
	want := tbl.Refs()
	if len(replay) != len(want) {
		t.Fatalf("replay has %d slots, want %d", len(replay), len(want))
	}
	for i := range want {
		if replay[i] != want[i] {
			t.Fatalf("slot %d: replay %d != table %d", i, replay[i], want[i])
		}
	}
}

func TestInitialGlobalDepth(t *testing.T) {
	tbl := newTable(t, Config{InitialGlobalDepth: 4})
	if tbl.GlobalDepth() != 4 || tbl.DirSize() != 16 {
		t.Fatalf("gd=%d dir=%d", tbl.GlobalDepth(), tbl.DirSize())
	}
	if tbl.Buckets() != 1 {
		t.Fatalf("buckets = %d, want 1 (all slots share)", tbl.Buckets())
	}
	tbl.Insert(1, 2)
	if v, ok := tbl.Lookup(1); !ok || v != 2 {
		t.Fatal("lookup after pre-sizing failed")
	}
}

func TestMaxGlobalDepthEnforced(t *testing.T) {
	tbl := newTable(t, Config{MaxGlobalDepth: 3})
	var err error
	for k := uint64(0); k < 100000; k++ {
		if err = tbl.Insert(k, k); err != nil {
			break
		}
	}
	if err == nil {
		t.Skip("never hit directory limit (extremely balanced hash)")
	}
	if tbl.GlobalDepth() > 3 {
		t.Fatalf("gd = %d exceeded limit", tbl.GlobalDepth())
	}
}

func TestAvgFanIn(t *testing.T) {
	tbl := newTable(t, Config{})
	if tbl.AvgFanIn() != 1 {
		t.Fatalf("fresh fan-in = %f", tbl.AvgFanIn())
	}
	for k := uint64(0); k < 10000; k++ {
		tbl.Insert(k, k)
	}
	got := tbl.AvgFanIn()
	want := float64(tbl.DirSize()) / float64(tbl.Buckets())
	if got != want {
		t.Fatalf("fan-in %f != %f", got, want)
	}
	if got < 1 {
		t.Fatalf("fan-in %f < 1", got)
	}
}

// TestQuickModelEquivalence drives random operation streams against a map.
func TestQuickModelEquivalence(t *testing.T) {
	tbl := newTable(t, Config{})
	model := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(7))

	check := func(kRaw uint16, v uint64, opRaw uint8) bool {
		k := uint64(kRaw) // small key space: heavy collisions, many upserts
		switch opRaw % 4 {
		case 0, 1: // insert twice as often
			if err := tbl.Insert(k, v); err != nil {
				return false
			}
			model[k] = v
		case 2:
			got, ok := tbl.Lookup(k)
			want, mok := model[k]
			if ok != mok || (ok && got != want) {
				return false
			}
		case 3:
			if tbl.Delete(k) != (func() bool { _, ok := model[k]; return ok })() {
				return false
			}
			delete(model, k)
		}
		if tbl.Len() != len(model) {
			return false
		}
		// Occasionally verify a random model key end-to-end.
		if len(model) > 0 && rng.Intn(8) == 0 {
			for mk, mv := range model {
				got, ok := tbl.Lookup(mk)
				return ok && got == mv
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeRandomKeys(t *testing.T) {
	tbl := newTable(t, Config{})
	rng := rand.New(rand.NewSource(42))
	keys := make([]uint64, 30000)
	for i := range keys {
		keys[i] = rng.Uint64()
		tbl.Insert(keys[i], uint64(i))
	}
	for i, k := range keys {
		v, ok := tbl.Lookup(k)
		if !ok || v != uint64(i) {
			// rng.Uint64 may repeat a key (overwritten value); tolerate
			// only exact duplicates.
			dup := false
			for j := i + 1; j < len(keys); j++ {
				if keys[j] == k {
					dup = true
					break
				}
			}
			if !dup {
				t.Fatalf("key %d (#%d) = %d,%v", k, i, v, ok)
			}
		}
	}
}

func BenchmarkEHInsert(b *testing.B) {
	tbl := newTable(b, Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Insert(uint64(i)*0x9E3779B97F4A7C15+1, uint64(i))
	}
}

func BenchmarkEHLookup(b *testing.B) {
	tbl := newTable(b, Config{})
	const n = 1 << 20
	for i := 0; i < n; i++ {
		tbl.Insert(uint64(i), uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(uint64(i & (n - 1)))
	}
}
