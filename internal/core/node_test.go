package core

import (
	"errors"
	"testing"
	"testing/quick"

	"vmshortcut/internal/pool"
	"vmshortcut/internal/sys"
)

func newPool(t *testing.T) *pool.Pool {
	t.Helper()
	p, err := pool.New(pool.Config{GrowChunkPages: 8, MaxPages: 1 << 16})
	if err != nil {
		t.Fatalf("pool.New: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestTraditionalResolvesLeaves(t *testing.T) {
	p := newPool(t)
	node := NewTraditional(p, 4)
	refs, _ := p.AllocN(3)
	for i, r := range refs {
		p.Page(r)[0] = byte(10 + i)
		node.Set(i, r)
	}
	for i := range refs {
		leaf := node.Leaf(i)
		if leaf == nil || leaf[0] != byte(10+i) {
			t.Fatalf("slot %d resolved wrong leaf", i)
		}
	}
	if node.Leaf(3) != nil {
		t.Fatal("empty slot should resolve to nil")
	}
}

func TestTraditionalRefRoundTrip(t *testing.T) {
	p := newPool(t)
	node := NewTraditional(p, 2)
	r, _ := p.Alloc()
	node.Set(1, r)
	if got := node.Ref(1); got != r {
		t.Fatalf("Ref = %d, want %d", got, r)
	}
	if got := node.Ref(0); got != pool.NoRef {
		t.Fatalf("empty Ref = %d, want NoRef", got)
	}
}

func TestShortcutMirrorsTraditional(t *testing.T) {
	p := newPool(t)
	const k = 8
	trad := NewTraditional(p, k)
	refs, _ := p.AllocN(5)
	for i, r := range refs {
		p.Page(r)[7] = byte(100 + i)
		trad.Set(i, r)
	}
	sc, err := NewShortcut(p, k)
	if err != nil {
		t.Fatalf("NewShortcut: %v", err)
	}
	defer sc.Close()
	if _, err := sc.SetFromTraditional(trad, true); err != nil {
		t.Fatalf("SetFromTraditional: %v", err)
	}
	for i := 0; i < k; i++ {
		want := trad.Leaf(i)
		got := sc.Leaf(i)
		if (want == nil) != (got == nil) {
			t.Fatalf("slot %d occupancy mismatch", i)
		}
		if want != nil && got[7] != want[7] {
			t.Fatalf("slot %d resolves different leaf: %d vs %d", i, got[7], want[7])
		}
	}
}

func TestShortcutAliasesPhysicalPage(t *testing.T) {
	p := newPool(t)
	sc, err := NewShortcut(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	r, _ := p.Alloc()
	if err := sc.Set(0, r, true); err != nil {
		t.Fatalf("Set: %v", err)
	}
	// Write through the pool window, read through the shortcut, and back.
	p.Page(r)[11] = 99
	if sc.Leaf(0)[11] != 99 {
		t.Fatal("shortcut does not alias the pool page")
	}
	sc.Leaf(0)[12] = 55
	if p.Page(r)[12] != 55 {
		t.Fatal("write through shortcut invisible in pool window")
	}
}

func TestShortcutFanIn(t *testing.T) {
	// Multiple slots rewired onto the same physical page — the situation
	// extendible hashing creates when global depth exceeds local depth.
	p := newPool(t)
	sc, err := NewShortcut(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	r, _ := p.Alloc()
	for i := 0; i < 4; i++ {
		if err := sc.Set(i, r, true); err != nil {
			t.Fatalf("Set(%d): %v", i, err)
		}
	}
	sc.Leaf(2)[0] = 123
	for i := 0; i < 4; i++ {
		if sc.Leaf(i)[0] != 123 {
			t.Fatalf("slot %d does not alias the shared page", i)
		}
	}
}

func TestSetAllCoalescesRuns(t *testing.T) {
	p := newPool(t)
	const k = 16
	run, err := p.AllocContiguous(k)
	if err != nil {
		t.Fatalf("AllocContiguous: %v", err)
	}
	ps := sys.PageSize()
	refs := make([]pool.Ref, k)
	for i := range refs {
		refs[i] = run + pool.Ref(i*ps)
		p.Page(refs[i])[0] = byte(i + 1)
	}
	sc, _ := NewShortcut(p, k)
	defer sc.Close()
	calls, err := sc.SetAll(refs, true)
	if err != nil {
		t.Fatalf("SetAll: %v", err)
	}
	if calls != 1 {
		t.Fatalf("contiguous refs should coalesce to 1 mmap, got %d", calls)
	}
	for i := 0; i < k; i++ {
		if sc.Leaf(i)[0] != byte(i+1) {
			t.Fatalf("slot %d wrong after coalesced map", i)
		}
	}
}

func TestSetAllMixedRuns(t *testing.T) {
	p := newPool(t)
	ps := sys.PageSize()
	run, _ := p.AllocContiguous(3)
	lone, _ := p.Alloc()
	refs := []pool.Ref{
		run, run + pool.Ref(ps), run + pool.Ref(2*ps), // one run of 3
		pool.NoRef, // hole
		lone,       // single page
	}
	sc, _ := NewShortcut(p, len(refs))
	defer sc.Close()
	calls, err := sc.SetAll(refs, false)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("expected 2 mmap calls (run + lone), got %d", calls)
	}
	if sc.Mapped(3) {
		t.Fatal("hole slot must stay unmapped")
	}
	if sc.Leaf(3) != nil {
		t.Fatal("hole slot must resolve nil")
	}
}

func TestPopulateAfterLazySet(t *testing.T) {
	p := newPool(t)
	const k = 32
	refs, _ := p.AllocN(k)
	sc, _ := NewShortcut(p, k)
	defer sc.Close()
	for i, r := range refs {
		if err := sc.Set(i, r, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.Populate(); err != nil {
		t.Fatalf("Populate: %v", err)
	}
	for i := range refs {
		sc.Leaf(i)[0] = byte(i)
	}
	for i, r := range refs {
		if p.Page(r)[0] != byte(i) {
			t.Fatalf("slot %d not wired to page %d", i, r)
		}
	}
}

func TestShortcutUpdateReplacesMapping(t *testing.T) {
	// Reflecting an update = re-executing step (2) for the slot (paper §2.1).
	p := newPool(t)
	sc, _ := NewShortcut(p, 1)
	defer sc.Close()
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	p.Page(a)[0], p.Page(b)[0] = 1, 2
	sc.Set(0, a, true)
	if sc.Leaf(0)[0] != 1 {
		t.Fatal("slot should see page a")
	}
	sc.Set(0, b, true)
	if sc.Leaf(0)[0] != 2 {
		t.Fatal("slot should see page b after update")
	}
	if p.Page(a)[0] != 1 {
		t.Fatal("page a damaged by remap")
	}
}

func TestShortcutErrors(t *testing.T) {
	p := newPool(t)
	if _, err := NewShortcut(p, 0); err == nil {
		t.Fatal("k=0 should fail")
	}
	sc, _ := NewShortcut(p, 2)
	r, _ := p.Alloc()
	if err := sc.Set(5, r, false); err == nil {
		t.Fatal("out-of-range slot should fail")
	}
	if _, err := sc.SetAll([]pool.Ref{r}, false); err == nil {
		t.Fatal("length mismatch should fail")
	}
	sc.Close()
	if err := sc.Set(0, r, false); !errors.Is(err, ErrClosed) {
		t.Fatalf("Set on closed = %v", err)
	}
	if err := sc.Populate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Populate on closed = %v", err)
	}
	if err := sc.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestSetFaultPropagates(t *testing.T) {
	p := newPool(t)
	sc, _ := NewShortcut(p, 1)
	defer sc.Close()
	r, _ := p.Alloc()
	boom := errors.New("boom")
	sys.SetFaultHook(func(op sys.Op) error {
		if op == sys.OpMapShared {
			return boom
		}
		return nil
	})
	err := sc.Set(0, r, false)
	sys.SetFaultHook(nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Set = %v, want boom", err)
	}
	if sc.Mapped(0) {
		t.Fatal("failed Set must not mark slot mapped")
	}
}

// TestQuickShortcutEquivalence: for random occupancy patterns, a shortcut
// built from a traditional node resolves exactly the same leaves.
func TestQuickShortcutEquivalence(t *testing.T) {
	p := newPool(t)
	const k = 16
	refs, err := p.AllocN(k)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		p.Page(r)[3] = byte(i + 1)
	}
	check := func(mask uint16) bool {
		trad := NewTraditional(p, k)
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				trad.Set(i, refs[i])
			}
		}
		sc, err := NewShortcut(p, k)
		if err != nil {
			return false
		}
		defer sc.Close()
		if _, err := sc.SetFromTraditional(trad, false); err != nil {
			return false
		}
		for i := 0; i < k; i++ {
			tl, sl := trad.Leaf(i), sc.Leaf(i)
			if (tl == nil) != (sl == nil) {
				return false
			}
			if tl != nil && tl[3] != sl[3] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestRemapsCounter(t *testing.T) {
	p := newPool(t)
	sc, _ := NewShortcut(p, 4)
	defer sc.Close()
	refs, _ := p.AllocN(2)
	sc.Set(0, refs[0], false)
	sc.Set(1, refs[1], false)
	if sc.Remaps != 2 {
		t.Fatalf("Remaps = %d, want 2", sc.Remaps)
	}
}
