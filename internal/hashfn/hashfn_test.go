package hashfn

import (
	"testing"
	"testing/quick"
)

func TestHashSpreadsLowBitKeys(t *testing.T) {
	// Sequential keys must not collide in the top bits that index the
	// directory: count distinct 8-bit prefixes of the first 4096 keys.
	seen := map[uint64]bool{}
	for k := uint64(0); k < 4096; k++ {
		seen[DirIndex(Hash(k), 8)] = true
	}
	if len(seen) < 250 {
		t.Fatalf("only %d of 256 directory slots hit by sequential keys", len(seen))
	}
}

func TestHashAndHash2Differ(t *testing.T) {
	same := 0
	for k := uint64(0); k < 1000; k++ {
		if Hash(k) == Hash2(k) {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d keys where Hash == Hash2", same)
	}
}

func TestDirIndexDepthZero(t *testing.T) {
	if DirIndex(^uint64(0), 0) != 0 {
		t.Fatal("depth 0 must map everything to slot 0")
	}
}

func TestDirIndexUsesMSB(t *testing.T) {
	h := uint64(0xF000000000000000)
	if got := DirIndex(h, 4); got != 0xF {
		t.Fatalf("DirIndex = %x, want f", got)
	}
	if got := DirIndex(h, 1); got != 1 {
		t.Fatalf("DirIndex depth1 = %d, want 1", got)
	}
}

func TestSplitBit(t *testing.T) {
	// ld=1: the split consults bit 62 (second most significant).
	if SplitBit(1<<62, 1) != 1 {
		t.Fatal("bit 62 should be 1")
	}
	if SplitBit(1<<63, 1) != 0 {
		t.Fatal("bit 63 must not leak into ld=1 split")
	}
}

// Property: DirIndex is monotone in h — MSB indexing is order-preserving.
func TestQuickDirIndexMonotone(t *testing.T) {
	check := func(a, b uint64, dRaw uint8) bool {
		d := uint(dRaw%24) + 1
		if a > b {
			a, b = b, a
		}
		return DirIndex(a, d) <= DirIndex(b, d)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHashAvalanche(t *testing.T) {
	// Flipping one input bit should flip roughly half the output bits.
	base := Hash(0x123456789ABCDEF)
	for bit := 0; bit < 64; bit += 7 {
		diff := base ^ Hash(0x123456789ABCDEF^(1<<bit))
		pop := popcount(diff)
		if pop < 16 || pop > 48 {
			t.Fatalf("bit %d avalanche popcount = %d", bit, pop)
		}
	}
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
