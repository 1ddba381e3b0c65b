package wire_test

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"vmshortcut/internal/op"
	"vmshortcut/internal/wire"
	"vmshortcut/wal"
)

// TestWALOpcodesMatchWire pins what is now true by construction: the
// WAL's record opcodes are internal/op's batch codes — one set of
// constants, not two kept equal by convention. The PUT/DEL/MIXED codes
// survive as record opcodes (and replication record tags) after their
// request frames were retired, so logs written before that still replay
// and ship.
func TestWALOpcodesMatchWire(t *testing.T) {
	pairs := []struct {
		name         string
		walOp, opRef byte
	}{
		{"put", wal.OpPut, op.CodePutBatch},
		{"del", wal.OpDel, op.CodeDelBatch},
		{"mixed", wal.OpMixed, op.CodeMixedBatch},
	}
	for _, p := range pairs {
		if p.walOp != p.opRef {
			t.Fatalf("%s: wal opcode %#x != batch code %#x", p.name, p.walOp, p.opRef)
		}
	}
	if op.CodePutBatch != 0x06 || op.CodeDelBatch != 0x07 || op.CodeMixedBatch != 0x08 {
		t.Fatalf("op batch codes moved: %#x %#x %#x — on-disk WAL compatibility broken",
			op.CodePutBatch, op.CodeDelBatch, op.CodeMixedBatch)
	}
}

// TestWALRecordIsWirePayload drives the layout contract end to end
// through the REAL code paths. A uniform PUT batch and a uniform DEL
// batch, built entry by entry the way the server's coalescer builds
// them, encode through the op codec into the same-kind PUT/DEL layouts; a
// frame carrying a mixed payload (the retired MIXEDBATCH request's bytes,
// and a shipped MIXED record's) is decoded exactly as a follower decodes
// it. Each is appended to a real log, must appear on disk byte-for-byte
// as the record's payload, and must decode back (the follower's path)
// to the same entries. The decoded mixed payload goes to the log with no
// re-encoding: op.Encodings stays flat across decode → Payload → append.
func TestWALRecordIsWirePayload(t *testing.T) {
	var put, del, m op.Batch
	put.Put(1, 10)
	put.Put(2, 20)
	del.Del(3)
	del.Del(4)
	m.Get(5)
	m.Put(6, 66)
	m.Del(7)
	mixedFrame := wire.AppendFrame(nil, op.CodeMixedBatch, m.AppendMixedPayload(nil))

	// The same-kind layouts, spelled out: u32 n, then n × (key, value)
	// for PUT and n × key for DEL.
	wantPut := op.AppendPairsPayload(nil, []uint64{1, 2}, []uint64{10, 20})
	wantDel := op.AppendKeysPayload(nil, []uint64{3, 4})

	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Mode: wal.FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	type rec struct {
		code    byte
		payload []byte
		batch   *op.Batch
	}
	var want []rec
	for _, b := range []*op.Batch{&put, &del} {
		code, payload := b.Payload()
		if _, err := l.AppendBatch(code, payload); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec{code, append([]byte(nil), payload...), b})
	}
	if !bytes.Equal(want[0].payload, wantPut) || want[0].code != op.CodePutBatch {
		t.Fatalf("uniform PUT batch encodes as %#x %x, want %#x %x", want[0].code, want[0].payload, op.CodePutBatch, wantPut)
	}
	if !bytes.Equal(want[1].payload, wantDel) || want[1].code != op.CodeDelBatch {
		t.Fatalf("uniform DEL batch encodes as %#x %x, want %#x %x", want[1].code, want[1].payload, op.CodeDelBatch, wantDel)
	}

	encBefore := op.Encodings()
	tag, payload := mixedFrame[4], mixedFrame[wire.HeaderSize:]
	var decoded op.Batch
	if err := wire.DecodeBatch(tag, payload, &decoded); err != nil {
		t.Fatal(err)
	}
	code, recPayload := decoded.Payload()
	if code != tag || !bytes.Equal(recPayload, payload) {
		t.Fatalf("decoded batch's payload (code %#x) differs from the frame payload", code)
	}
	if _, err := l.AppendBatch(code, recPayload); err != nil {
		t.Fatal(err)
	}
	if got := op.Encodings(); got != encBefore {
		t.Fatalf("wire→WAL path performed %d encoding passes, want 0", got-encBefore)
	}
	want = append(want, rec{code, payload, &m})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Parse the segment by hand and compare each record's payload (after
	// the 8-byte record header, the 8-byte LSN, and the code byte) to the
	// payload that produced it, then decode it back.
	blob, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	offset := 0
	for i, w := range want {
		payloadLen := int(binary.LittleEndian.Uint32(blob[offset:]))
		r := blob[offset+8 : offset+8+payloadLen]
		lsn, code := binary.LittleEndian.Uint64(r), r[8]
		if lsn != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, lsn)
		}
		if code != w.code {
			t.Fatalf("record %d code %#x, want %#x", i, code, w.code)
		}
		if !bytes.Equal(r[9:], w.payload) {
			t.Fatalf("record %d payload differs from the batch payload", i)
		}
		var back op.Batch
		if err := wire.DecodeBatch(code, r[9:], &back); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		for j := 0; j < w.batch.Len(); j++ {
			if back.Kinds()[j] != w.batch.Kinds()[j] || back.Keys()[j] != w.batch.Keys()[j] || back.Vals()[j] != w.batch.Vals()[j] {
				t.Fatalf("record %d entry %d decodes differently", i, j)
			}
		}
		offset += 8 + payloadLen
	}
	if offset != len(blob) {
		t.Fatalf("segment has %d trailing bytes", len(blob)-offset)
	}
}

// TestShippedRecordIsWirePayload extends the zero-re-encode contract
// across the replication hop: a WAL record's payload, shipped in a
// ReplRecord frame and decoded exactly as a follower decodes it, must
// land in the follower's own log byte-identical to the primary's record
// — no encoding pass anywhere from the primary's disk to the replica's.
// This is what lets a replica's WAL be compared byte for byte against
// the primary's.
func TestShippedRecordIsWirePayload(t *testing.T) {
	// The primary-side record: a mixed batch as a client frame would
	// produce it.
	var m op.Batch
	m.Get(5)
	m.Put(6, 66)
	m.Del(7)
	code, primaryPayload := m.Payload()

	// Ship it: primary side builds the frame straight from the record
	// bytes; follower side decodes it back out.
	frame := wire.AppendReplRecord(nil, 1, code, primaryPayload)
	if tag := frame[4]; tag != wire.ReplRecord {
		t.Fatalf("record frame tag = %#x", tag)
	}
	lsn, gotCode, shipped, err := wire.DecodeReplRecord(frame[wire.HeaderSize:])
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 1 || gotCode != code {
		t.Fatalf("DecodeReplRecord = lsn %d code %#x", lsn, gotCode)
	}
	if !bytes.Equal(shipped, primaryPayload) {
		t.Fatal("shipped payload differs from the primary's record payload")
	}

	// Apply it the follower's way — DecodeBatch into the shared batch,
	// then the batch's Payload is what a durable follower appends — and
	// pin that the whole hop performed zero encoding passes.
	encBefore := op.Encodings()
	var b op.Batch
	if err := wire.DecodeBatch(gotCode, shipped, &b); err != nil {
		t.Fatal(err)
	}
	followerCode, followerPayload := b.Payload()
	if got := op.Encodings(); got != encBefore {
		t.Fatalf("replication hop performed %d encoding passes, want 0", got-encBefore)
	}
	if followerCode != code || !bytes.Equal(followerPayload, primaryPayload) {
		t.Fatal("follower's log payload differs from the primary's record payload")
	}

	// And on disk: append to a real follower-side log and compare the
	// raw record bytes.
	dir := t.TempDir()
	l, err := wal.Open(dir, wal.Options{Mode: wal.FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendBatch(followerCode, followerPayload); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	payloadLen := int(binary.LittleEndian.Uint32(blob))
	rec := blob[8 : 8+payloadLen]
	if rec[8] != code || !bytes.Equal(rec[9:], primaryPayload) {
		t.Fatal("follower's on-disk record differs from the primary's payload bytes")
	}
}
