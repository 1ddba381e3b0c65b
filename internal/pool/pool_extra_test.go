package pool

import (
	"testing"

	"vmshortcut/internal/sys"
)

func TestDefaultPoolAndAccessors(t *testing.T) {
	p, err := Default()
	if err != nil {
		t.Fatalf("Default: %v", err)
	}
	defer p.Close()
	if p.FD() < 0 {
		t.Fatal("FD invalid")
	}
	if p.PageSize() != sys.PageSize() {
		t.Fatal("PageSize mismatch")
	}
	if p.Window() == 0 {
		t.Fatal("window not reserved")
	}
	r, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	p.Page(r)[0] = 1
}

func TestFreeN(t *testing.T) {
	p := newTestPool(t, Config{GrowChunkPages: 4})
	refs, err := p.AllocN(6)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.FreeN(refs); err != nil {
		t.Fatalf("FreeN: %v", err)
	}
	if s := p.Stats(); s.UsedPages != 0 || s.Frees != 6 {
		t.Fatalf("stats after FreeN: %+v", s)
	}
	// FreeN must stop at the first invalid ref.
	r2, _ := p.Alloc()
	if err := p.FreeN([]Ref{r2, Ref(999)}); err == nil {
		t.Fatal("invalid ref accepted")
	}
}

// TestFreeAllocatesNothing frees pages of a large file: no call may build
// anything per free page, so the free path allocates nothing.
func TestFreeAllocatesNothing(t *testing.T) {
	p := newTestPool(t, Config{InitialPages: 4096, MaxPages: 1 << 13})
	refs, err := p.AllocN(4096)
	if err != nil {
		t.Fatal(err)
	}
	// Room for every free in the queue, so appends allocate nothing either.
	p.free = make([]Ref, 0, len(refs))
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if err := p.Free(refs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Free allocated %.2f times per call, want 0", allocs)
	}
	if s := p.Stats(); s.FilePages != 4096 || s.FreePages != i {
		t.Fatalf("stats = %+v after %d frees", s, i)
	}
}

func TestAllocContiguousReusesFreeRun(t *testing.T) {
	p := newTestPool(t, Config{GrowChunkPages: 4, MaxPages: 256})
	ps := sys.PageSize()

	// Build a fragmented free list: allocate 12, free a contiguous run of
	// 4 in the middle plus scattered singles.
	refs, err := p.AllocN(12)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{4, 5, 6, 7, 0, 10} {
		if err := p.Free(refs[i]); err != nil {
			t.Fatal(err)
		}
	}
	filePages := p.Stats().FilePages

	run, err := p.AllocContiguous(4)
	if err != nil {
		t.Fatalf("AllocContiguous: %v", err)
	}
	// The run must be the recycled middle block, not fresh growth.
	if run != refs[4] {
		t.Fatalf("run = %d, want recycled %d", run, refs[4])
	}
	if p.Stats().FilePages != filePages {
		t.Fatal("contiguous alloc grew the file despite a free run")
	}
	for i := 0; i < 4; i++ {
		pg := p.Page(run + Ref(i*ps))
		pg[0] = byte(i + 1)
	}
	// Scattered singles must still be free (not consumed by the run).
	if s := p.Stats(); s.FreePages != 2 {
		t.Fatalf("free pages = %d, want 2 scattered singles", s.FreePages)
	}
}

func TestAllocContiguousZeroAndNegative(t *testing.T) {
	p := newTestPool(t, Config{})
	if r, err := p.AllocContiguous(0); err != nil || r != NoRef {
		t.Fatalf("AllocContiguous(0) = %d, %v", r, err)
	}
}

func TestWindowStableAcrossGrowth(t *testing.T) {
	p := newTestPool(t, Config{GrowChunkPages: 1, MaxPages: 1 << 12})
	base := p.Window()
	first, _ := p.Alloc()
	p.Page(first)[0] = 9
	for i := 0; i < 500; i++ {
		if _, err := p.Alloc(); err != nil {
			t.Fatal(err)
		}
	}
	if p.Window() != base {
		t.Fatal("window moved during growth")
	}
	if p.Page(first)[0] != 9 {
		t.Fatal("early page lost data across growth")
	}
}
