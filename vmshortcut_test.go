package vmshortcut

import (
	"testing"
	"time"
)

// TestFacadeIndexes drives both index kinds through the Index interface
// of an Open store — the integration test of the public API — and checks
// that each store's table holds the same entries.
func TestFacadeIndexes(t *testing.T) {
	open := func(kind Kind, opts ...Option) Store {
		t.Helper()
		s, err := Open(kind, opts...)
		if err != nil {
			t.Fatalf("Open(%s): %v", kind, err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	stores := map[string]Store{
		"EH":          open(KindEH),
		"Shortcut-EH": open(KindShortcutEH, WithPollInterval(time.Millisecond)),
	}
	const n = 20000
	for name, s := range stores {
		var idx Index = s
		for k := uint64(1); k <= n; k++ {
			if err := idx.Insert(k, k*2); err != nil {
				t.Fatalf("%s: Insert(%d): %v", name, k, err)
			}
		}
		if idx.Len() != n {
			t.Fatalf("%s: Len = %d", name, idx.Len())
		}
		for k := uint64(1); k <= n; k += 7 {
			v, ok := idx.Lookup(k)
			if !ok || v != k*2 {
				t.Fatalf("%s: Lookup(%d) = %d,%v", name, k, v, ok)
			}
		}
		if !idx.Delete(5) || idx.Delete(5) {
			t.Fatalf("%s: delete semantics broken", name)
		}
		if idx.Len() != n-1 {
			t.Fatalf("%s: Len after delete = %d", name, idx.Len())
		}
	}

	if ehTbl := stores["EH"].(*store).eh; ehTbl.Len() != n-1 {
		t.Fatalf("EH table Len = %d", ehTbl.Len())
	}
	scTbl := stores["Shortcut-EH"].(*store).sc
	if scTbl.Len() != n-1 {
		t.Fatalf("Shortcut-EH table Len = %d", scTbl.Len())
	}
	if v, ok := scTbl.Lookup(7); !ok || v != 14 {
		t.Fatalf("Shortcut-EH table Lookup(7) = %d,%v", v, ok)
	}
}

// TestFacadeRewiring exercises the node-level public API end to end.
func TestFacadeRewiring(t *testing.T) {
	p, err := NewPool(PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	refs, err := p.AllocN(4)
	if err != nil {
		t.Fatal(err)
	}
	trad := NewTraditionalNode(p, 4)
	for i, r := range refs {
		p.Page(r)[0] = byte(i + 1)
		trad.Set(i, r)
	}
	sc, err := NewShortcutNode(p, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.SetFromTraditional(trad, true); err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		if sc.Leaf(i)[0] != trad.Leaf(i)[0] {
			t.Fatalf("slot %d differs between access paths", i)
		}
	}
	// Shortcut-EH visibility through the facade types.
	if sc.Leaf(2)[0] != 3 {
		t.Fatal("leaf content wrong")
	}
}
