package vmsim

import "testing"

// TestNestedPagingChargesEPTRefs pins what one cold 4 KB translation
// costs under nested paging with no walk caches: 4 guest entry reads,
// each behind a 4-level host walk (16 EPTRefs), and then the data access
// itself — 21 memory references. The host walk of the data page's own
// address is not modelled (see Config.NestedPaging).
func TestNestedPagingChargesEPTRefs(t *testing.T) {
	m := New(Config{NestedPaging: true, PageWalkCache: false})
	m.Map(5, 5)
	m.MustAccess(5 << 12)
	st := m.Stats()
	if st.Walks != 1 {
		t.Fatalf("Walks = %d, want 1", st.Walks)
	}
	if st.EPTRefs != 16 {
		t.Fatalf("EPTRefs = %d, want 16 for one full walk", st.EPTRefs)
	}
	if refs := st.L1Hits + st.L2Hits + st.L3Hits + st.DRAM; refs != 4+16+1 {
		t.Fatalf("memory references = %d, want 4 guest + 16 host + 1 data", refs)
	}
}

func TestNestedPagingMakesWalksMoreExpensive(t *testing.T) {
	run := func(nested bool) float64 {
		m := New(Config{NestedPaging: nested})
		// TLB-thrashing working set so every access walks.
		const pages = 1 << 16
		for p := uint64(0); p < pages; p++ {
			m.Map(p, p)
		}
		x := uint64(99)
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1
			m.MustAccess((x % pages) << 12)
		}
		return m.Time()
	}
	native, nested := run(false), run(true)
	if nested <= native*1.2 {
		t.Fatalf("nested paging too cheap: %.0f vs native %.0f", nested, native)
	}
}

func TestNestedPagingNoCostOnTLBHit(t *testing.T) {
	m := New(Config{NestedPaging: true})
	m.Map(1, 1)
	m.MustAccess(1 << 12) // walk (charges EPT)
	before := m.Stats().EPTRefs
	m.MustAccess(1 << 12) // TLB hit — combined translation is cached
	if m.Stats().EPTRefs != before {
		t.Fatal("TLB hit must not pay EPT refs")
	}
}
