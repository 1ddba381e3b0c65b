package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"vmshortcut/internal/op"
)

// buildChainedLog writes a small multi-segment chained log and returns
// its dir. Mixed record codes exercise every code path of the digest.
func buildChainedLog(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: FsyncOff, SegmentBytes: 160, Chained: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 6; i++ {
		if _, err := appendPut(l, []uint64{i, i + 100}, []uint64{i * 3, i * 7}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := appendDel(l, []uint64{101, 102}); err != nil {
		t.Fatal(err)
	}
	var b op.Batch
	b.Get(1)
	b.Put(9, 99)
	b.Del(2)
	code, payload := b.Payload()
	if _, err := l.AppendBatch(code, payload); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestChainExtendRejectsGaps(t *testing.T) {
	c := NewChain(5)
	if _, err := c.Extend(7, OpPut, []byte{0, 0, 0, 0}); err == nil {
		t.Fatal("extending 5 with record 7 must fail")
	}
	if _, err := c.Extend(5, OpPut, []byte{0, 0, 0, 0}); err == nil {
		t.Fatal("re-extending with the anchor must fail")
	}
	if _, err := c.Extend(6, OpPut, []byte{0, 0, 0, 0}); err != nil {
		t.Fatalf("extending 5 with record 6: %v", err)
	}
}

func TestChainAnchorsDiffer(t *testing.T) {
	a, b := NewChain(0), NewChain(1)
	sa, _ := a.Extend(1, OpPut, []byte{1, 0, 0, 0})
	sb, _ := b.Extend(2, OpPut, []byte{1, 0, 0, 0})
	if sa == sb {
		t.Fatal("chains with different anchors agreed on the same payload")
	}
}

// TestChainHeadMatchesVerify pins that the live chain (built record by
// record through the append path), the replay-rebuilt chain (a reopen),
// and the offline auditor all converge on one digest.
func TestChainHeadMatchesVerify(t *testing.T) {
	dir := buildChainedLog(t)
	anchor, last, head, err := VerifyChain(dir)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if anchor != 0 || last != 8 {
		t.Fatalf("verify anchor %d last %d, want 0 and 8", anchor, last)
	}
	l, err := Open(dir, Options{Mode: FsyncOff, Chained: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	la, ll, lh, ok := l.ChainHead()
	if !ok {
		t.Fatal("chained log reports no chain head")
	}
	if la != anchor || ll != last || lh != head {
		t.Fatalf("reopened head (%d,%d,%x) differs from audit (%d,%d,%x)", la, ll, lh, anchor, last, head)
	}
	if _, _, _, ok := mustOpenPlain(t, dir).ChainHead(); ok {
		t.Fatal("unchained log must report no chain head")
	}
}

func mustOpenPlain(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(dir, Options{Mode: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// TestVerifyChainTamperTable flips every single byte of every segment in
// turn: each flip must be detected, either structurally (ErrCorrupt — the
// CRC or framing catches it) or by the head digest changing. This is the
// acceptance property: one flipped byte anywhere in the shipped prefix
// cannot go unnoticed.
func TestVerifyChainTamperTable(t *testing.T) {
	dir := buildChainedLog(t)
	_, _, head0, err := VerifyChain(dir)
	if err != nil {
		t.Fatalf("baseline verify: %v", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("test wants a multi-segment log, got %d segments", len(segs))
	}
	for _, seg := range segs {
		blob, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		for off := range blob {
			tampered := append([]byte(nil), blob...)
			tampered[off] ^= 0x40
			if err := os.WriteFile(seg.path, tampered, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, head, verr := VerifyChain(dir)
			if verr == nil && head == head0 {
				t.Fatalf("flip at %s offset %d went undetected", filepath.Base(seg.path), off)
			}
		}
		if err := os.WriteFile(seg.path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVerifyChainCRCFixedTamper is the attack the CRC alone cannot catch:
// flip a payload byte and recompute the record's CRC so the log is
// structurally pristine. Only the chain digest exposes it.
func TestVerifyChainCRCFixedTamper(t *testing.T) {
	dir := buildChainedLog(t)
	_, _, head0, err := VerifyChain(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// First record: u32 len | u32 crc | payload. Flip a batch byte (past
	// the lsn+code prefix, so framing and contiguity stay intact) and
	// re-seal the CRC.
	payloadLen := int(binary.LittleEndian.Uint32(blob))
	payload := blob[recordHeaderSize : recordHeaderSize+payloadLen]
	payload[payloadPrefixSize+4] ^= 0x01 // a key byte in the batch
	binary.LittleEndian.PutUint32(blob[4:], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(segs[0].path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, head, err := VerifyChain(dir)
	if err != nil {
		t.Fatalf("CRC-fixed tamper must verify structurally, got %v", err)
	}
	if head == head0 {
		t.Fatal("CRC-fixed tamper did not change the chain head")
	}
}

// TestVerifyChainRejectsTornTail pins the strictness gap between the
// auditor and recovery: Open repairs a torn final record, VerifyChain
// reports it.
func TestVerifyChainRejectsTornTail(t *testing.T) {
	dir := buildChainedLog(t)
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].path
	blob, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(last, blob[:len(blob)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := VerifyChain(dir); err == nil {
		t.Fatal("auditor accepted a torn tail")
	}
}

// TestChainReanchorsAfterCompact: compaction discards the chain's prefix;
// a reopen re-anchors at the new oldest record and the auditor agrees.
func TestChainReanchorsAfterCompact(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: FsyncOff, SegmentBytes: 128, Chained: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if _, err := appendPut(l, []uint64{i}, []uint64{i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := l.Compact(15); err != nil {
		t.Fatal(err)
	}
	oldest := l.OldestLSN()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	anchor, last, head, err := VerifyChain(dir)
	if err != nil {
		t.Fatalf("verify after compact: %v", err)
	}
	if anchor != oldest-1 || last != 20 {
		t.Fatalf("verify anchor %d last %d, want %d and 20", anchor, last, oldest-1)
	}
	l2, err := Open(dir, Options{Mode: FsyncOff, Chained: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	a2, l2last, h2, ok := l2.ChainHead()
	if !ok || a2 != anchor || l2last != last || h2 != head {
		t.Fatalf("reopened head (%d,%d,%x) differs from audit (%d,%d,%x)", a2, l2last, h2, anchor, last, head)
	}
}
