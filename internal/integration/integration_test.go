// Package integration_test crosses module boundaries: pool ↔ core ↔ sceh
// interactions that no single package test exercises — pages freed and
// recycled underneath live shortcuts, syscall failures during mapper
// replay, and full-stack churn.
package integration_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"vmshortcut/internal/core"
	"vmshortcut/internal/pool"
	"vmshortcut/internal/sceh"
	"vmshortcut/internal/sys"
	"vmshortcut/internal/workload"
)

// TestShortcutSurvivesPoolChurn covers the deferred-unmap / recycling
// hazard: buckets split, their old pages are freed and recycled into new
// buckets while stale shortcut slots still alias them. As long as the
// versions are respected, no lookup may ever observe a wrong value.
func TestShortcutSurvivesPoolChurn(t *testing.T) {
	p, err := pool.New(pool.Config{
		GrowChunkPages: 4,
		MaxPages:       1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tbl, err := sceh.New(p, sceh.Config{PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()

	const n = 60000
	for i := 0; i < n; i++ {
		k := workload.Key(3, uint64(i))
		if err := tbl.Insert(k, uint64(i)); err != nil {
			t.Fatal(err)
		}
		// Interleave lookups of earlier keys during heavy split churn.
		if i%97 == 0 {
			probe := workload.Key(3, uint64(i/2))
			if v, ok := tbl.Lookup(probe); !ok || v != uint64(i/2) {
				t.Fatalf("churn lookup(%d) = %d,%v", i/2, v, ok)
			}
		}
	}
	if !tbl.WaitSync(10 * time.Second) {
		t.Fatal("never synced")
	}
	for i := 0; i < n; i += 13 {
		k := workload.Key(3, uint64(i))
		if v, ok := tbl.Lookup(k); !ok || v != uint64(i) {
			t.Fatalf("final lookup(%d) = %d,%v", i, v, ok)
		}
	}
}

// TestMapperSurvivesSyscallFaults injects mmap failures into the mapper's
// replay path: the shortcut must simply stay stale (lookups keep using the
// traditional directory and stay correct) and recover once the faults
// clear.
func TestMapperSurvivesSyscallFaults(t *testing.T) {
	// Pre-size the pool so insertions never grow the file: the injected
	// MapShared faults then only ever hit the mapper's remap path, not
	// pool growth (growth failures are pool_test territory).
	p, err := pool.New(pool.Config{
		InitialPages: 1 << 13,
		MaxPages:     1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tbl, err := sceh.New(p, sceh.Config{PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer tbl.Close()

	// Fill a little so the shortcut exists and is in sync.
	for i := 0; i < 5000; i++ {
		tbl.Insert(workload.Key(5, uint64(i)), uint64(i))
	}
	tbl.WaitSync(5 * time.Second)

	// Now fail every MapShared — the mapper cannot apply anything.
	var failing atomic.Bool
	failing.Store(true)
	boom := errors.New("injected mmap failure")
	sys.SetFaultHook(func(op sys.Op) error {
		if failing.Load() && op == sys.OpMapShared {
			return boom
		}
		return nil
	})
	defer sys.SetFaultHook(nil)

	for i := 5000; i < 30000; i++ {
		if err := tbl.Insert(workload.Key(5, uint64(i)), uint64(i)); err != nil {
			t.Fatalf("insert during faults: %v", err)
		}
	}
	// Lookups must be correct regardless of the broken mapper.
	for i := 0; i < 30000; i += 111 {
		k := workload.Key(5, uint64(i))
		if v, ok := tbl.Lookup(k); !ok || v != uint64(i) {
			t.Fatalf("lookup during faults(%d) = %d,%v", i, v, ok)
		}
	}

	// Clear the faults; trigger more modifications so fresh create/update
	// requests flow, and verify the mapper recovers to sync.
	failing.Store(false)
	for i := 30000; i < 60000; i++ {
		if err := tbl.Insert(workload.Key(5, uint64(i)), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if !tbl.WaitSync(10 * time.Second) {
		t.Fatalf("mapper did not recover: trad=%d sc=%d",
			tbl.TradVersion(), tbl.ShortcutVersion())
	}
	for i := 0; i < 60000; i += 131 {
		k := workload.Key(5, uint64(i))
		if v, ok := tbl.Lookup(k); !ok || v != uint64(i) {
			t.Fatalf("post-recovery lookup(%d) = %d,%v", i, v, ok)
		}
	}
}

// TestManyShortcutsOneChurningPool stresses several independent shortcut
// nodes aliasing one pool whose pages keep being freed and reallocated.
func TestManyShortcutsOneChurningPool(t *testing.T) {
	p, err := pool.New(pool.Config{
		GrowChunkPages: 2,
		MaxPages:       1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const nodes = 8
	const slots = 16
	scs := make([]*core.Shortcut, nodes)
	refs := make([][]pool.Ref, nodes)
	for i := range scs {
		sc, err := core.NewShortcut(p, slots)
		if err != nil {
			t.Fatal(err)
		}
		defer sc.Close()
		scs[i] = sc
		rs, err := p.AllocN(slots)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = rs
		for s, r := range rs {
			p.Page(r)[0] = byte(i*16 + s + 1)
			if err := sc.Set(s, r, true); err != nil {
				t.Fatal(err)
			}
		}
	}

	rng := workload.NewRNG(1)
	for round := 0; round < 200; round++ {
		// Clear one node's shortcut slots, free its pages, then
		// reallocate them.
		i := rng.Intn(nodes)
		for s := 0; s < slots; s++ {
			if err := scs[i].ClearSlot(s); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.FreeN(refs[i]); err != nil {
			t.Fatal(err)
		}
		rs, err := p.AllocN(slots)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = rs
		for s, r := range rs {
			p.Page(r)[0] = byte(i*16 + s + 1)
			if err := scs[i].Set(s, r, true); err != nil {
				t.Fatal(err)
			}
		}
		// All nodes must still resolve their own leaves.
		for j := 0; j < nodes; j++ {
			s := rng.Intn(slots)
			if got := scs[j].Leaf(s)[0]; got != byte(j*16+s+1) {
				t.Fatalf("round %d: node %d slot %d reads %d", round, j, s, got)
			}
		}
	}
}

// TestPoolWindowAndShortcutAgreeUnderWrites does randomized writes through
// randomly chosen views (pool window vs shortcut alias) and verifies both
// views and a model agree.
func TestPoolWindowAndShortcutAgreeUnderWrites(t *testing.T) {
	p, err := pool.New(pool.Config{MaxPages: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const slots = 32
	refs, err := p.AllocN(slots)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := core.NewShortcut(p, slots)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.SetAll(refs, true); err != nil {
		t.Fatal(err)
	}

	model := make(map[[2]int]byte)
	rng := workload.NewRNG(2)
	for i := 0; i < 5000; i++ {
		slot := rng.Intn(slots)
		off := rng.Intn(sys.PageSize())
		val := byte(rng.Intn(255) + 1)
		if rng.Intn(2) == 0 {
			p.Page(refs[slot])[off] = val
		} else {
			sc.Leaf(slot)[off] = val
		}
		model[[2]int{slot, off}] = val
	}
	for ko, want := range model {
		if got := p.Page(refs[ko[0]])[ko[1]]; got != want {
			t.Fatalf("window view slot %d off %d = %d, want %d", ko[0], ko[1], got, want)
		}
		if got := sc.Leaf(ko[0])[ko[1]]; got != want {
			t.Fatalf("shortcut view slot %d off %d = %d, want %d", ko[0], ko[1], got, want)
		}
	}
}
