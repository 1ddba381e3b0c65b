package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vmshortcut/internal/op"
)

// FuzzDecodePayload throws arbitrary bytes at the record payload decoder:
// it must never panic, and whatever it accepts must re-encode to the same
// payload (the codec is bijective on valid records) — across all three
// record codes, including OpMixed's variable-stride layout.
func FuzzDecodePayload(f *testing.F) {
	f.Add(appendRecord(nil, 1, OpPut, op.AppendPairsPayload(nil, []uint64{1, 2}, []uint64{3, 4}))[recordHeaderSize:])
	f.Add(appendRecord(nil, 9, OpDel, op.AppendKeysPayload(nil, []uint64{42}))[recordHeaderSize:])
	var mixed op.Batch
	mixed.Get(5)
	mixed.Put(6, 66)
	mixed.Del(7)
	f.Add(appendRecord(nil, 3, OpMixed, mixed.AppendPayload(nil))[recordHeaderSize:])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, OpPut, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var b op.Batch
		lsn, code, err := decodeRecordPayload(payload, &b)
		if err != nil {
			return
		}
		re := appendRecord(nil, lsn, code, b.AppendPayload(nil))[recordHeaderSize:]
		if !bytes.Equal(re, payload) {
			t.Fatalf("re-encoded %d bytes differ from the %d-byte payload", len(re), len(payload))
		}
	})
}

// FuzzOpenSegment feeds arbitrary bytes to the segment scanner as a
// final segment: Open must never panic and never fail (a final segment's
// tail damage is always repairable by truncation), and the resulting log
// must accept an append and survive a reopen.
func FuzzOpenSegment(f *testing.F) {
	intact := appendRecord(nil, 1, OpPut, op.AppendPairsPayload(nil, []uint64{5}, []uint64{6}))
	var mixed op.Batch
	mixed.Put(1, 2)
	mixed.Get(3)
	withMixed := appendRecord(intact, 2, OpMixed, mixed.AppendPayload(nil))
	f.Add(intact)
	f.Add(intact[:len(intact)-3])
	f.Add(withMixed)
	f.Add(withMixed[:len(withMixed)-5])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})
	// What a crash leaves in a preallocated segment: records and a zero
	// tail (long, or shorter than a header), a torn record and zeros, a
	// torn record with its tail zeroed and a complete record behind it.
	zeros := make([]byte, 100)
	f.Add(append(append([]byte(nil), withMixed...), zeros...))
	f.Add(append(append([]byte(nil), intact...), 0, 0, 0))
	f.Add(append(append([]byte(nil), withMixed[:len(withMixed)-5]...), zeros...))
	f.Add(append(append(append([]byte(nil), intact[:len(intact)-9]...), zeros[:9]...), withMixed[len(intact):]...))
	f.Add(zeros)
	f.Fuzz(func(t *testing.T, blob []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), blob, 0o644); err != nil {
			t.Fatal(err)
		}
		var replayed uint64
		l, err := Open(dir, Options{Mode: FsyncOff}, func(lsn uint64, _ *op.Batch) error {
			replayed = lsn
			return nil
		})
		if err != nil {
			t.Fatalf("Open on a damaged final segment must repair, got %v", err)
		}
		lsn, err := appendDel(l, []uint64{1})
		if err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if lsn != replayed+1 {
			t.Fatalf("append got LSN %d after replaying up to %d", lsn, replayed)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{Mode: FsyncOff}, nil); err != nil {
			t.Fatalf("reopen after repair+append: %v", err)
		}
	})
}
