package pool_test

import (
	"testing"

	"vmshortcut/internal/core"
	"vmshortcut/internal/pool"
)

// TestFreedPagesStayMapped frees every page of a pool several grow chunks
// large. The file must keep its size, and each freed page must stay
// readable both through the window and through a shortcut slot still
// mapped onto it: a stale shortcut generation never reads past EOF.
func TestFreedPagesStayMapped(t *testing.T) {
	const chunk, n = 2, 1280 // many grow chunks, and more than 4 MiB
	p, err := pool.New(pool.Config{GrowChunkPages: chunk, MaxPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	refs, err := p.AllocN(n)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := core.NewShortcut(p, n)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.SetAll(refs, true); err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		p.Page(r)[7] = byte(i + 1)
	}
	before := p.Stats().FilePages
	if err := p.FreeN(refs); err != nil {
		t.Fatal(err)
	}
	if s := p.Stats(); s.FilePages != before || s.FreePages != before {
		t.Fatalf("after freeing all %d pages: %+v, want FilePages = FreePages = %d", n, s, before)
	}
	for i, r := range refs {
		if got := p.Page(r)[7]; got != byte(i+1) {
			t.Fatalf("freed page %d reads %d through the window, want %d", i, got, i+1)
		}
		if got := sc.Leaf(i)[7]; got != byte(i+1) {
			t.Fatalf("freed page %d reads %d through the shortcut, want %d", i, got, i+1)
		}
	}
}
