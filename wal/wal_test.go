package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vmshortcut/internal/op"
	"vmshortcut/internal/sys"
)

// appendPut logs the pairs as one PUT record, the record a store's
// all-PUT ApplyBatch writes.
func appendPut(l *Log, keys, values []uint64) (uint64, error) {
	return l.AppendBatch(OpPut, op.AppendPairsPayload(nil, keys, values))
}

// appendDel logs the keys as one DEL record.
func appendDel(l *Log, keys []uint64) (uint64, error) {
	return l.AppendBatch(OpDel, op.AppendKeysPayload(nil, keys))
}

// rec is one replayed record, for collection-based assertions.
type rec struct {
	lsn    uint64
	op     byte
	keys   []uint64
	values []uint64
}

// collect returns a ReplayFunc appending into out. The batch is reused
// between callbacks, so its columns are copied out.
func collect(out *[]rec) ReplayFunc {
	return func(lsn uint64, b *op.Batch) error {
		r := rec{lsn: lsn, op: b.Code(), keys: append([]uint64(nil), b.Keys()...)}
		if b.Puts() > 0 {
			r.values = append([]uint64(nil), b.Vals()...)
		}
		*out = append(*out, r)
		return nil
	}
}

func TestParseFsyncMode(t *testing.T) {
	for _, m := range []FsyncMode{FsyncAlways, FsyncInterval, FsyncOff} {
		got, err := ParseFsyncMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseFsyncMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseFsyncMode("sometimes"); err == nil {
		t.Fatal("ParseFsyncMode accepted an unknown mode")
	}
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn, err := appendPut(l, []uint64{1, 2, 3}, []uint64{10, 20, 30}); err != nil || lsn != 1 {
		t.Fatalf("appendPut = %d, %v", lsn, err)
	}
	if lsn, err := appendDel(l, []uint64{2}); err != nil || lsn != 2 {
		t.Fatalf("appendDel = %d, %v", lsn, err)
	}
	if lsn, err := appendPut(l, []uint64{0}, []uint64{99}); err != nil || lsn != 3 {
		t.Fatalf("appendPut = %d, %v", lsn, err)
	}
	st := l.Stats()
	if st.LastLSN != 3 || st.SyncedLSN != 3 || st.Segments != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var got []rec
	l2, err := Open(dir, Options{}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := []rec{
		{lsn: 1, op: OpPut, keys: []uint64{1, 2, 3}, values: []uint64{10, 20, 30}},
		{lsn: 2, op: OpDel, keys: []uint64{2}},
		{lsn: 3, op: OpPut, keys: []uint64{0}, values: []uint64{99}},
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.lsn != w.lsn || g.op != w.op || !equalU64(g.keys, w.keys) || !equalU64(g.values, w.values) {
			t.Fatalf("record %d = %+v, want %+v", i, g, w)
		}
	}
	// Appends continue from the replayed position.
	if lsn, err := appendDel(l2, []uint64{7}); err != nil || lsn != 4 {
		t.Fatalf("post-replay append = %d, %v", lsn, err)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTornTailEveryOffset is the torn-write table test: a one-segment log
// cut at every byte offset must open cleanly, replay exactly the records
// that fit completely before the cut, and accept new appends at exactly
// that point. Each cut is tried with the three things a crash can leave
// behind it in a preallocated segment: nothing, zeros, and — the rest of
// the torn record zeroed — the complete later records. The last must still
// cut at the tear: no acknowledged record can sit behind an unsynced one.
func TestTornTailEveryOffset(t *testing.T) {
	src := t.TempDir()
	l, err := Open(src, Options{Mode: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// A few records of different shapes and sizes; the mixed one in the
	// middle makes torn-tail repair handle the variable-stride layout. No
	// zero bytes in keys or values: zeroing any part of a record damages it.
	k := func(x uint64) uint64 { return x * 0x0101010101010101 }
	var mixed op.Batch
	mixed.Get(k(7))
	mixed.Put(k(8), k(88))
	mixed.Del(k(9))
	var boundaries []int // logical size after each complete record
	for i, app := range []func() (uint64, error){
		func() (uint64, error) { return appendPut(l, []uint64{k(1), k(2)}, []uint64{k(11), k(22)}) },
		func() (uint64, error) { return appendDel(l, []uint64{k(2), k(3), k(4)}) },
		func() (uint64, error) { return l.AppendBatch(OpMixed, mixed.AppendPayload(nil)) },
		func() (uint64, error) { return appendPut(l, []uint64{k(5)}, []uint64{k(55)}) },
	} {
		if _, err := app(); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		boundaries = append(boundaries, int(l.Stats().Bytes))
	}
	segPath := filepath.Join(src, segName(1))
	if fi, err := os.Stat(segPath); err != nil || fi.Size() <= int64(boundaries[3]) {
		t.Fatalf("the live segment is not preallocated: %v, %v", fi, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(whole) != boundaries[3] {
		t.Fatalf("closed segment is %d bytes, its records %d", len(whole), boundaries[3])
	}

	tails := map[string]func(cut int) []byte{
		"nothing": func(int) []byte { return nil },
		"zeros":   func(int) []byte { return make([]byte, 300) },
		"later records": func(cut int) []byte {
			for _, b := range boundaries {
				if b > cut {
					return append(make([]byte, b-cut), whole[b:]...)
				}
			}
			return nil
		},
	}
	for name, tail := range tails {
		for cut := 0; cut <= len(whole); cut++ {
			dir := t.TempDir()
			path := filepath.Join(dir, segName(1))
			blob := append(append([]byte(nil), whole[:cut]...), tail(cut)...)
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
			var got []rec
			l2, err := Open(dir, Options{Mode: FsyncOff}, collect(&got))
			if err != nil {
				t.Fatalf("%s after %d: Open: %v", name, cut, err)
			}
			wantRecords, end := 0, 0
			for _, b := range boundaries {
				if cut >= b {
					wantRecords, end = wantRecords+1, b
				}
			}
			if len(got) != wantRecords {
				t.Fatalf("%s after %d: replayed %d records, want %d", name, cut, len(got), wantRecords)
			}
			// The log stays appendable, the new record lands right behind
			// the last intact one, and it survives a reopen.
			newLSN, err := appendPut(l2, []uint64{100}, []uint64{200})
			if err != nil {
				t.Fatalf("%s after %d: append after repair: %v", name, cut, err)
			}
			if want := uint64(wantRecords) + 1; newLSN != want {
				t.Fatalf("%s after %d: new LSN %d, want %d", name, cut, newLSN, want)
			}
			if err := l2.Close(); err != nil {
				t.Fatalf("%s after %d: close: %v", name, cut, err)
			}
			want := appendRecord(append([]byte(nil), whole[:end]...), newLSN, OpPut,
				op.AppendPairsPayload(nil, []uint64{100}, []uint64{200}))
			if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, want) {
				t.Fatalf("%s after %d: the new record is not at offset %d (%d bytes on disk, want %d): %v",
					name, cut, end, len(onDisk), len(want), err)
			}
			got = got[:0]
			l3, err := Open(dir, Options{Mode: FsyncOff}, collect(&got))
			if err != nil {
				t.Fatalf("%s after %d: reopen: %v", name, cut, err)
			}
			if len(got) != wantRecords+1 || got[len(got)-1].keys[0] != 100 {
				t.Fatalf("%s after %d: after reappend replayed %d records", name, cut, len(got))
			}
			l3.Close()
		}
	}
}

func TestRotationAndCompact(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record is ~45 bytes, so rotation is frequent.
	l, err := Open(dir, Options{Mode: FsyncOff, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := uint64(1); i <= n; i++ {
		if _, err := appendPut(l, []uint64{i}, []uint64{i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected several segments, got %d", st.Segments)
	}
	// Compacting up to LSN 20 must keep every record after 20 replayable.
	removed, err := l.Compact(20)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("Compact removed nothing")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []rec
	l2, err := Open(dir, Options{}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) == 0 || got[len(got)-1].lsn != n {
		t.Fatalf("replay after compact ended at %d records", len(got))
	}
	for _, g := range got {
		if g.lsn > 20 && g.keys[0] != g.lsn {
			t.Fatalf("record %d carries key %d", g.lsn, g.keys[0])
		}
	}
	first := got[0].lsn
	if first > 21 {
		t.Fatalf("compact removed records past LSN 20: first replayed is %d", first)
	}
}

// TestUntruncatedSealedSegment: a crash in mid-rotation, after the
// successor was created but before the sealed segment's truncation reached
// the disk, leaves a non-final segment that still ends in preallocated
// zeros — a few bytes of them or thousands. Recovery, the chain auditor and
// the tailer must all read the zeros as the end of that segment, not as a
// damaged record in the middle of the log.
func TestUntruncatedSealedSegment(t *testing.T) {
	for _, pad := range []int64{3, 8, 5000} {
		dir := t.TempDir()
		l, err := Open(dir, Options{Mode: FsyncOff, SegmentBytes: 128, Chained: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		const n = 20
		for i := uint64(1); i <= n; i++ {
			if _, err := appendPut(l, []uint64{i}, []uint64{i}); err != nil {
				t.Fatal(err)
			}
		}
		_, _, head, _ := l.ChainHead()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := listSegments(dir)
		if err != nil || len(segs) < 3 {
			t.Fatalf("want several segments, got %d (%v)", len(segs), err)
		}
		for _, seg := range segs[:len(segs)-1] {
			fi, err := os.Stat(seg.path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg.path, fi.Size()+pad); err != nil { // grows the file with zeros
				t.Fatal(err)
			}
		}
		if _, last, vhead, err := VerifyChain(dir); err != nil || last != n || vhead != head {
			t.Fatalf("pad %d: VerifyChain = last %d, head match %v, %v", pad, last, vhead == head, err)
		}
		var got []rec
		l2, err := Open(dir, Options{Mode: FsyncOff, SegmentBytes: 128}, collect(&got))
		if err != nil {
			t.Fatalf("pad %d: Open: %v", pad, err)
		}
		if len(got) != n {
			t.Fatalf("pad %d: replayed %d records, want %d", pad, len(got), n)
		}
		if recs, err := collectTail(t, l2, 0, n); err != nil || len(recs) != n {
			t.Fatalf("pad %d: tail delivered %d records: %v", pad, len(recs), err)
		}
		l2.Close()
	}
}

func TestCorruptMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: FsyncOff, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if _, err := appendPut(l, []uint64{i}, []uint64{i}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Segments < 2 {
		t.Fatal("need at least two segments")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the FIRST segment: that is corruption, not
	// a torn tail, and recovery must refuse rather than drop records.
	path := filepath.Join(dir, segName(1))
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[recordHeaderSize+9] ^= 0xFF
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over corrupt middle segment = %v, want ErrCorrupt", err)
	}
}

// TestMissingMiddleSegmentFails pins the cross-segment continuity check:
// a lost segment between two surviving ones is a hole of acknowledged
// records and must fail Open, not replay around it.
func TestMissingMiddleSegmentFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: FsyncOff, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 30; i++ {
		if _, err := appendPut(l, []uint64{i}, []uint64{i}); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Segments < 3 {
		t.Fatalf("need ≥3 segments, got %d", st.Segments)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Remove a middle segment (neither the first nor the last).
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segNames []string
	for _, e := range entries {
		if _, ok := parseSegName(e.Name()); ok {
			segNames = append(segNames, e.Name())
		}
	}
	if err := os.Remove(filepath.Join(dir, segNames[1])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a segment gap = %v, want ErrCorrupt", err)
	}
}

// TestEmptySegmentSeedsLSNFromName pins the LSN floor: a lone segment
// that replays empty (crash between rotation and the first flushed
// record, predecessors compacted) must still resume LSNs after its name,
// never restart at 1 — reused LSNs would collide with snapshot coverage
// and be dropped on the next recovery.
func TestEmptySegmentSeedsLSNFromName(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(101)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, Options{Mode: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().LastLSN; got != 100 {
		t.Fatalf("LastLSN = %d, want 100 (from the segment name)", got)
	}
	lsn, err := appendPut(l, []uint64{1}, []uint64{1})
	if err != nil || lsn != 101 {
		t.Fatalf("first append = %d, %v, want LSN 101", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// The record must survive the next recovery (it is the segment's
	// first record and matches the name).
	var got []rec
	l2, err := Open(dir, Options{}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 1 || got[0].lsn != 101 {
		t.Fatalf("replayed %+v, want one record at LSN 101", got)
	}
}

// TestGroupCommitSharesFsyncs drives many concurrent FsyncAlways
// appenders and checks the cohort actually shares syncs: two may be in
// flight, but whoever leads one flushes for everyone who waited, so the
// sync count must come out well below the append count (every appender
// issuing its own would make them equal). Each sync costs a fixed
// millisecond, so the cohort size follows from that cost and not from how
// busy the device is; TestConcurrentAppends covers group commit on the
// real device.
func TestGroupCommitSharesFsyncs(t *testing.T) {
	prev := fdatasync
	fdatasync = func(sys.File) error { time.Sleep(time.Millisecond); return nil }
	defer func() { fdatasync = prev }()
	for _, workers := range []int{16, 64} {
		l, err := Open(t.TempDir(), Options{Mode: FsyncAlways}, nil)
		if err != nil {
			t.Fatal(err)
		}
		const perWorker = 40
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					if _, err := appendPut(l, []uint64{uint64(w)}, []uint64{uint64(i)}); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		st := l.Stats()
		l.Close()
		total := uint64(workers * perWorker)
		if st.SyncedLSN != total {
			t.Fatalf("%d writers: synced %d of %d appended", workers, st.SyncedLSN, total)
		}
		if st.Syncs > total/4 {
			t.Fatalf("%d writers: %d syncs for %d appends: group commit shares too little", workers, st.Syncs, total)
		}
		t.Logf("%d writers: %d appends covered by %d syncs", workers, total, st.Syncs)
	}
}

// TestAppendBatchRejectsOversized checks that a payload counting more
// than MaxRecordPairs elements is refused before anything is written, and
// that the refusal is not a sticky log error: the next append lands at
// the LSN the refused one would have taken.
func TestAppendBatchRejectsOversized(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	keys := make([]uint64, MaxRecordPairs+1)
	if _, err := l.AppendBatch(OpDel, op.AppendKeysPayload(nil, keys)); err == nil {
		t.Fatal("AppendBatch accepted an oversized payload")
	}
	if lsn, err := appendDel(l, keys[:MaxRecordPairs]); err != nil || lsn != 1 {
		t.Fatalf("full-size append after the refusal = %d, %v; want LSN 1", lsn, err)
	}
}

// TestConcurrentAppends drives appenders from many goroutines under
// FsyncAlways (group commit) and checks every append is replayed exactly
// once. Run under -race this also validates the locking.
func TestConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := uint64(w*perWorker + i)
				if _, err := appendPut(l, []uint64{key}, []uint64{key}); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.LastLSN != workers*perWorker {
		t.Fatalf("LastLSN = %d, want %d", st.LastLSN, workers*perWorker)
	}
	if st.SyncedLSN != st.LastLSN {
		t.Fatalf("FsyncAlways left synced=%d behind last=%d", st.SyncedLSN, st.LastLSN)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	l2, err := Open(dir, Options{}, func(_ uint64, b *op.Batch) error {
		seen[b.Keys()[0]] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(seen) != workers*perWorker {
		t.Fatalf("replayed %d distinct keys, want %d", len(seen), workers*perWorker)
	}
}

func TestIntervalModeSyncsAndCloses(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: FsyncInterval, Interval: time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendPut(l, []uint64{1}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	// Close performs the final sync and must stop the ticker goroutine.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := appendPut(l, []uint64{2}, []uint64{2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after Close = %v, want ErrClosed", err)
	}
	var got []rec
	l2, err := Open(dir, Options{}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
}

// TestRecordEncoding pins the on-disk framing so a refactor cannot
// silently change the format: a known record must produce known bytes,
// and the streamed append path (writeRecordLocked) must produce the
// exact bytes the in-memory helper does.
func TestRecordEncoding(t *testing.T) {
	pairs := op.AppendPairsPayload(nil, []uint64{0x1122334455667788}, []uint64{0x99})
	got := appendRecord(nil, 7, OpPut, pairs)
	if len(got) != recordHeaderSize+payloadPrefixSize+4+16 {
		t.Fatalf("record length %d", len(got))
	}
	// payloadLen field.
	if want := payloadPrefixSize + 4 + 16; int(got[0])|int(got[1])<<8 != want {
		t.Fatalf("payloadLen = %d, want %d", int(got[0])|int(got[1])<<8, want)
	}
	// The payload must start with the LSN and op and decode back.
	var b op.Batch
	lsn, code, err := decodeRecordPayload(got[recordHeaderSize:], &b)
	if err != nil || lsn != 7 || code != OpPut || b.Keys()[0] != 0x1122334455667788 || b.Vals()[0] != 0x99 {
		t.Fatalf("decode = %d %#x %v %v %v", lsn, code, b.Keys(), b.Vals(), err)
	}
	if !bytes.Equal(appendRecord(nil, 7, OpPut, pairs), got) {
		t.Fatal("encoding is not deterministic")
	}

	// The real append path writes the identical bytes: one record through
	// a live log equals the helper's framing (the first record has LSN 1).
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendPut(l, []uint64{0x1122334455667788}, []uint64{0x99}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, appendRecord(nil, 1, OpPut, pairs)) {
		t.Fatalf("streamed record %x differs from framed record", onDisk)
	}
}

// TestAppendBatchZeroCopyRoundTrip drives the zero-copy append path: a
// pre-encoded payload (as the wire layer hands it over) must land as one
// record whose payload bytes are exactly the input, and replay must
// reproduce the batch — including a mixed record whose GET entries are
// carried but ignored as mutations.
func TestAppendBatchZeroCopyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mixed op.Batch
	mixed.Get(1)
	mixed.Put(2, 22)
	mixed.Del(3)
	mixed.Put(4, 44)
	payload := mixed.AppendPayload(nil)
	lsn, err := l.AppendBatch(OpMixed, payload)
	if err != nil || lsn != 1 {
		t.Fatalf("AppendBatch = %d, %v", lsn, err)
	}
	pairs := op.AppendPairsPayload(nil, []uint64{9}, []uint64{90})
	if lsn, err = l.AppendBatch(OpPut, pairs); err != nil || lsn != 2 {
		t.Fatalf("AppendBatch(put) = %d, %v", lsn, err)
	}
	if _, err := l.AppendBatch(0x42, payload); err == nil {
		t.Fatal("AppendBatch accepted an invalid code")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// The record's payload bytes on disk are the input bytes.
	onDisk, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	rec1 := appendRecord(nil, 1, OpMixed, payload)
	rec2 := appendRecord(nil, 2, OpPut, pairs)
	if !bytes.Equal(onDisk, append(rec1, rec2...)) {
		t.Fatalf("on-disk bytes differ from the zero-copy framing")
	}

	var got []rec
	l2, err := Open(dir, Options{}, collect(&got))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(got) != 2 || got[0].op != OpMixed || got[1].op != OpPut {
		t.Fatalf("replayed %+v", got)
	}
	if !equalU64(got[0].keys, []uint64{1, 2, 3, 4}) || !equalU64(got[0].values, []uint64{0, 22, 0, 44}) {
		t.Fatalf("mixed record replayed as %+v", got[0])
	}
}

// TestSegmentNames pins the name scheme replay ordering depends on.
func TestSegmentNames(t *testing.T) {
	for _, lsn := range []uint64{1, 255, 1 << 40} {
		name := segName(lsn)
		got, ok := parseSegName(name)
		if !ok || got != lsn {
			t.Fatalf("parseSegName(%q) = %d, %v", name, got, ok)
		}
	}
	if _, ok := parseSegName("snap-0000000000000001.snap"); ok {
		t.Fatal("parseSegName accepted a snapshot name")
	}
	if fmt.Sprintf("wal-%016x.log", uint64(16)) <= fmt.Sprintf("wal-%016x.log", uint64(9)) {
		t.Fatal("hex segment names must sort in LSN order")
	}
}
