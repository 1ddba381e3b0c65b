package vmshortcut_test

import (
	"os"
	"path/filepath"
	"testing"

	"vmshortcut"
	"vmshortcut/internal/op"
	"vmshortcut/internal/wire"
)

// TestDurableZeroReencode pins the unified pipeline's headline property:
// a batch that arrives as wire bytes (decoded the way a follower decodes
// a shipped record) reaches the WAL with ZERO payload re-encodings — the
// record's payload on disk is the shipped payload, byte for byte.
// (External test package: internal/wire imports the root package, so the
// in-package tests cannot import it back.)
func TestDurableZeroReencode(t *testing.T) {
	dir := t.TempDir()
	s, err := vmshortcut.Open(vmshortcut.KindEH,
		vmshortcut.WithWAL(dir), vmshortcut.WithFsync(vmshortcut.FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	// The payload a primary would ship (encoded up front; not counted
	// against the apply path below).
	var m vmshortcut.OpBatch
	m.Put(1, 11)
	m.Get(1)
	m.Del(2)
	payload := m.AppendMixedPayload(nil)

	var b vmshortcut.OpBatch
	var res vmshortcut.OpResults
	if err := wire.DecodeBatch(op.CodeMixedBatch, payload, &b); err != nil {
		t.Fatal(err)
	}
	before := op.Encodings()
	if err := s.ApplyBatch(&b, &res); err != nil {
		t.Fatal(err)
	}
	if got := op.Encodings(); got != before {
		t.Fatalf("wire→WAL path performed %d payload encodings, want 0", got-before)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The one record's payload is the shipped payload.
	blob, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	// u32 len | u32 crc | u64 lsn | u8 code | payload
	if len(blob) != 8+9+len(payload) || blob[16] != op.CodeMixedBatch {
		t.Fatalf("record framing = %d bytes, code %#x", len(blob), blob[16])
	}
	if string(blob[17:]) != string(payload) {
		t.Fatal("WAL record payload differs from the shipped payload")
	}
}

// BenchmarkDurableApplyBatch measures the WAL-enabled ApplyBatch path a
// follower drives: a pre-encoded mixed payload (half PUT / half GET, as
// YCSB mix A would gather) is decoded as a shipped record is decoded and
// applied to a durable store with -fsync off. The reported
// encodings/op metric is the acceptance gate for the unified pipeline:
// it must be 0.000 — the WAL record is the wire payload, never re-packed
// — where the pre-refactor stack re-encoded every record.
func BenchmarkDurableApplyBatch(b *testing.B) {
	dir := b.TempDir()
	s, err := vmshortcut.Open(vmshortcut.KindShortcutEH,
		vmshortcut.WithWAL(dir), vmshortcut.WithFsync(vmshortcut.FsyncOff))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	// One reusable payload of 128 ops: alternating PUT/GET over a small
	// key set, the shape a coalesced pipeline round produces.
	var m vmshortcut.OpBatch
	for i := uint64(0); i < 128; i += 2 {
		m.Put(i, i)
		m.Get(i)
	}
	payload := m.AppendMixedPayload(nil)

	var batch vmshortcut.OpBatch
	var res vmshortcut.OpResults
	encBefore := op.Encodings()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wire.DecodeBatch(op.CodeMixedBatch, payload, &batch); err != nil {
			b.Fatal(err)
		}
		if err := s.ApplyBatch(&batch, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(op.Encodings()-encBefore)/float64(b.N), "encodings/op")
	if op.Encodings() != encBefore {
		b.Fatalf("durable ApplyBatch re-encoded %d payloads", op.Encodings()-encBefore)
	}
}
