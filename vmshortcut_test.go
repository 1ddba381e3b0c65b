package vmshortcut

import (
	"bytes"
	"testing"
	"time"
)

// deferredBuffer is a tiny bytes.Buffer wrapper so the test reads the
// snapshot back through a plain io.Reader.
type deferredBuffer struct{ bytes.Buffer }

func (b *deferredBuffer) reader() *bytes.Reader { return bytes.NewReader(b.Bytes()) }

// TestFacadeIndexes drives both index kinds through the Index interface
// of an Open store — the integration test of the public API — and checks
// that the As* escape hatches reach the same concrete tables.
func TestFacadeIndexes(t *testing.T) {
	p, err := NewPool(PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p2, err := NewPool(PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()

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
		"EH":          open(KindEH, WithPool(p)),
		"Shortcut-EH": open(KindShortcutEH, WithPool(p2), WithPollInterval(time.Millisecond)),
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

	ehTbl, ok := AsExtendibleHashing(stores["EH"])
	if !ok || ehTbl.Len() != n-1 {
		t.Fatalf("AsExtendibleHashing = %v, %v", ehTbl, ok)
	}
	scTbl, ok := AsShortcutEH(stores["Shortcut-EH"])
	if !ok || scTbl.Len() != n-1 {
		t.Fatalf("AsShortcutEH = %v, %v", scTbl, ok)
	}
	if v, ok := scTbl.Lookup(7); !ok || v != 14 {
		t.Fatalf("Shortcut-EH table Lookup(7) = %d,%v", v, ok)
	}
}

// TestFacadeSnapshot writes an EH snapshot through the facade's escape
// hatch and restores it into a fresh table.
func TestFacadeSnapshot(t *testing.T) {
	p, err := NewPool(PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	es, err := Open(KindEH, WithPool(p))
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	for k := uint64(0); k < 10000; k++ {
		es.Insert(k, k+5)
	}
	src, ok := AsExtendibleHashing(es)
	if !ok {
		t.Fatal("AsExtendibleHashing reported no EH table")
	}
	var buf deferredBuffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	p2, err := NewPool(PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	dst, err := RestoreExtendibleHashing(p2, ExtendibleConfig{}, buf.reader())
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 10000; k += 101 {
		if v, ok := dst.Lookup(k); !ok || v != k+5 {
			t.Fatalf("restored Lookup(%d) = %d,%v", k, v, ok)
		}
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
