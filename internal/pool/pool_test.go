package pool

import (
	"errors"
	"testing"
	"testing/quick"

	"vmshortcut/internal/sys"
)

func newTestPool(t *testing.T, cfg Config) *Pool {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestAllocReturnsZeroedDistinctPages(t *testing.T) {
	p := newTestPool(t, Config{})
	refs, err := p.AllocN(16)
	if err != nil {
		t.Fatalf("AllocN: %v", err)
	}
	seen := map[Ref]bool{}
	for _, r := range refs {
		if seen[r] {
			t.Fatalf("page %d handed out twice", r)
		}
		seen[r] = true
		pg := p.Page(r)
		for i, b := range pg {
			if b != 0 {
				t.Fatalf("page %d byte %d = %d, want 0", r, i, b)
			}
		}
	}
}

func TestPageWritesAreIsolated(t *testing.T) {
	p := newTestPool(t, Config{})
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	p.Page(a)[0] = 1
	p.Page(b)[0] = 2
	if p.Page(a)[0] != 1 || p.Page(b)[0] != 2 {
		t.Fatal("pages alias each other")
	}
}

func TestFreeRecyclesAndZeroes(t *testing.T) {
	p := newTestPool(t, Config{GrowChunkPages: 4, MaxPages: 8})
	var refs []Ref
	for i := 0; i < 8; i++ {
		r, err := p.Alloc()
		if err != nil {
			t.Fatalf("Alloc %d: %v", i, err)
		}
		p.Page(r)[0] = byte(i + 1)
		refs = append(refs, r)
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("Alloc beyond MaxPages = %v, want ErrExhausted", err)
	}
	if err := p.Free(refs[3]); err != nil {
		t.Fatalf("Free: %v", err)
	}
	r, err := p.Alloc()
	if err != nil {
		t.Fatalf("Alloc after free: %v", err)
	}
	if r != refs[3] {
		t.Fatalf("expected recycled page %d, got %d", refs[3], r)
	}
	if p.Page(r)[0] != 0 {
		t.Fatal("recycled page not zeroed")
	}
}

func TestFreeMiddleGoesToQueue(t *testing.T) {
	p := newTestPool(t, Config{GrowChunkPages: 1, MaxPages: 64})
	refs, _ := p.AllocN(4)
	if err := p.Free(refs[1]); err != nil {
		t.Fatalf("Free: %v", err)
	}
	s := p.Stats()
	if s.FreePages != 1 {
		t.Fatalf("free queue = %d, want 1", s.FreePages)
	}
	r, _ := p.Alloc()
	if r != refs[1] {
		t.Fatalf("middle page not recycled: got %d want %d", r, refs[1])
	}
}

func TestAllocContiguous(t *testing.T) {
	p := newTestPool(t, Config{GrowChunkPages: 2, MaxPages: 256})
	run, err := p.AllocContiguous(8)
	if err != nil {
		t.Fatalf("AllocContiguous: %v", err)
	}
	ps := sys.PageSize()
	for i := 0; i < 8; i++ {
		pg := sys.Bytes(p.Addr(run+Ref(i*ps)), ps)
		pg[0] = byte(i)
	}
	for i := 0; i < 8; i++ {
		if p.Page(run + Ref(i*ps))[0] != byte(i) {
			t.Fatalf("contiguous page %d corrupted", i)
		}
	}
}

func TestRefOfInvertsAddr(t *testing.T) {
	p := newTestPool(t, Config{})
	refs, _ := p.AllocN(5)
	for _, r := range refs {
		got, err := p.RefOf(p.Addr(r))
		if err != nil {
			t.Fatalf("RefOf: %v", err)
		}
		if got != r {
			t.Fatalf("RefOf(Addr(%d)) = %d", r, got)
		}
		// Interior address must round down to the page ref.
		got, err = p.RefOf(p.Addr(r) + 123)
		if err != nil || got != r {
			t.Fatalf("RefOf interior = %d, %v", got, err)
		}
	}
	if _, err := p.RefOf(p.Window() - 1); err == nil {
		t.Fatal("RefOf below window should fail")
	}
}

func TestFreeValidation(t *testing.T) {
	p := newTestPool(t, Config{})
	if _, err := p.AllocN(2); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(Ref(12345)); err == nil {
		t.Fatal("Free of unaligned ref should fail")
	}
	if err := p.Free(Ref(1 << 40)); err == nil {
		t.Fatal("Free beyond file should fail")
	}
}

func TestClosedPool(t *testing.T) {
	p, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := p.Alloc()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Alloc on closed = %v", err)
	}
	if err := p.Free(r); !errors.Is(err, ErrClosed) {
		t.Fatalf("Free on closed = %v", err)
	}
}

func TestGrowFailureRollsBack(t *testing.T) {
	p := newTestPool(t, Config{GrowChunkPages: 1})
	boom := errors.New("boom")
	sys.SetFaultHook(func(op sys.Op) error {
		if op == sys.OpFtruncate {
			return boom
		}
		return nil
	})
	_, err := p.Alloc()
	sys.SetFaultHook(nil)
	if !errors.Is(err, boom) {
		t.Fatalf("Alloc during fault = %v, want boom", err)
	}
	// Pool must still be usable after the fault clears.
	r, err := p.Alloc()
	if err != nil {
		t.Fatalf("Alloc after fault: %v", err)
	}
	p.Page(r)[0] = 7
}

func TestStatsAccounting(t *testing.T) {
	p := newTestPool(t, Config{GrowChunkPages: 4})
	refs, _ := p.AllocN(6)
	for _, r := range refs[:3] {
		p.Free(r)
	}
	s := p.Stats()
	if s.Allocs != 6 || s.Frees != 3 || s.UsedPages != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.PeakPages < 6 {
		t.Fatalf("peak = %d, want >= 6", s.PeakPages)
	}
}

// TestQuickAllocFreeInvariant drives random alloc/free sequences and checks
// that the pool never double-hands-out a live page and that used+free
// accounting stays consistent.
func TestQuickAllocFreeInvariant(t *testing.T) {
	p := newTestPool(t, Config{GrowChunkPages: 2, MaxPages: 512})
	live := map[Ref]byte{}
	seq := byte(0)

	step := func(op uint8, _ uint16) bool {
		if op%3 != 0 || len(live) == 0 { // bias toward alloc
			r, err := p.Alloc()
			if err != nil {
				return false
			}
			if _, dup := live[r]; dup {
				t.Errorf("page %d handed out while live", r)
				return false
			}
			seq++
			p.Page(r)[100] = seq
			live[r] = seq
		} else {
			for r := range live {
				if p.Page(r)[100] != live[r] {
					t.Errorf("page %d lost its marker", r)
					return false
				}
				if err := p.Free(r); err != nil {
					return false
				}
				delete(live, r)
				break
			}
		}
		s := p.Stats()
		return s.UsedPages == len(live) && s.FilePages >= s.UsedPages
	}
	if err := quick.Check(step, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAllocFree(t *testing.T) {
	p := newTestPool(t, Config{GrowChunkPages: 8, MaxPages: 4096})
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			var mine []Ref
			for i := 0; i < 200; i++ {
				r, err := p.Alloc()
				if err != nil {
					done <- err
					return
				}
				p.Page(r)[0] = byte(w + 1)
				mine = append(mine, r)
				if len(mine) > 10 {
					r := mine[0]
					mine = mine[1:]
					if p.Page(r)[0] != byte(w+1) {
						done <- errors.New("page corrupted by another worker")
						return
					}
					if err := p.Free(r); err != nil {
						done <- err
						return
					}
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
