package vmshortcut

import (
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmshortcut/wal"
)

// verifyEntries checks the store holds exactly want.
func verifyEntries(t *testing.T, s Store, want map[uint64]uint64) {
	t.Helper()
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	for k, v := range want {
		got, ok := s.Lookup(k)
		if !ok || got != v {
			t.Fatalf("Lookup(%d) = %d, %v, want %d", k, got, ok, v)
		}
	}
}

// TestDurableRecoverFromWAL covers the pure log-replay path: no snapshot,
// close, reopen, identical keyspace — across both kinds, since replay
// exercises each kind's batch paths.
func TestDurableRecoverFromWAL(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := []Option{WithCapacity(5000), WithWAL(dir), WithFsync(FsyncAlways)}
			s, err := Open(kind, opts...)
			if err != nil {
				t.Fatal(err)
			}
			want := map[uint64]uint64{}
			for i := uint64(0); i < 1000; i++ {
				if err := s.Insert(i, i*2); err != nil {
					t.Fatal(err)
				}
				want[i] = i * 2
			}
			// Batch mutations, overwrites, and deletes must all replay.
			// Uniform PUT and DEL batches log PUTBATCH and DELBATCH
			// records, the same-kind layouts no request frame carries
			// any more: replay must keep reading them.
			keys := []uint64{10, 20, 30}
			vals := []uint64{111, 222, 333}
			if err := putBatch(s, keys, vals); err != nil {
				t.Fatal(err)
			}
			for i, k := range keys {
				want[k] = vals[i]
			}
			for _, ok := range delBatch(s, []uint64{5, 15, 25}) {
				if !ok {
					t.Fatal("delete missed")
				}
			}
			delete(want, 5)
			delete(want, 15)
			delete(want, 25)
			st := s.Stats()
			if st.WALRecords == 0 || st.DurableLSN != st.WALRecords {
				t.Fatalf("durability stats not filled: %+v", st)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(kind, opts...)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			verifyEntries(t, s2, want)
		})
	}
}

// TestDurableApplyBatchRecovery covers the unified pipeline's durability
// path: mixed batches (including GET entries, which must not be replayed
// as mutations) applied through ApplyBatch land as ONE WAL record each
// and recover exactly — across every kind and the sharded store.
func TestDurableApplyBatchRecovery(t *testing.T) {
	kinds := []struct {
		name string
		open func(dir string) (Store, error)
	}{
		{"eh", func(dir string) (Store, error) {
			return Open(KindEH, WithWAL(dir), WithFsync(FsyncAlways))
		}},
		{"shortcut-eh", func(dir string) (Store, error) {
			return Open(KindShortcutEH, WithWAL(dir), WithFsync(FsyncAlways))
		}},
		{"sharded", func(dir string) (Store, error) {
			return Open(KindShortcutEH, WithShards(4), WithWAL(dir), WithFsync(FsyncAlways))
		}},
	}
	for _, tc := range kinds {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := tc.open(dir)
			if err != nil {
				t.Fatal(err)
			}
			var res OpResults
			var b OpBatch
			b.Put(1, 10)
			b.Get(1)
			b.Put(2, 20)
			b.Del(1)
			if err := s.ApplyBatch(&b, &res); err != nil {
				t.Fatal(err)
			}
			b.Reset()
			b.Put(3, 30)
			b.Put(2, 21) // overwrite in a later record
			if err := s.ApplyBatch(&b, &res); err != nil {
				t.Fatal(err)
			}
			// A read-only batch appends NO record.
			before := s.Stats().WALRecords
			b.Reset()
			b.Get(2)
			b.Get(3)
			if err := s.ApplyBatch(&b, &res); err != nil {
				t.Fatal(err)
			}
			if !res.Found[0] || res.Vals[0] != 21 || !res.Found[1] || res.Vals[1] != 30 {
				t.Fatalf("read-only batch results = %+v", res)
			}
			st := s.Stats()
			if st.WALRecords != before {
				t.Fatalf("read-only batch appended a record (%d → %d)", before, st.WALRecords)
			}
			if st.WALRecords != 2 {
				t.Fatalf("2 mutation batches produced %d records, want 2", st.WALRecords)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := tc.open(dir)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer s2.Close()
			verifyEntries(t, s2, map[uint64]uint64{2: 21, 3: 30})
		})
	}
}

// TestDurableApplyBatchRejectsOversizedBeforeApply pins the
// validate-before-apply ordering: a mutation batch too large for one WAL
// record must be rejected WITHOUT touching the keyspace — rejecting
// after the apply would leave mutations live in memory with no record
// and no sticky log error, silent divergence a crash would surface as
// data loss.
func TestDurableApplyBatchRejectsOversizedBeforeApply(t *testing.T) {
	s, err := Open(KindEH, WithWAL(t.TempDir()), WithFsync(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var b OpBatch
	for i := uint64(0); i <= uint64(wal.MaxRecordPairs); i++ {
		b.Put(i, i)
	}
	var res OpResults
	if err := s.ApplyBatch(&b, &res); err == nil {
		t.Fatal("oversized mutation batch accepted")
	}
	if s.Len() != 0 {
		t.Fatalf("rejected batch still applied %d entries", s.Len())
	}
	if got := s.Stats().WALRecords; got != 0 {
		t.Fatalf("rejected batch appended %d records", got)
	}
	// A pure-read batch of any size is fine — it never becomes a record.
	b.Reset()
	for i := uint64(0); i <= uint64(wal.MaxRecordPairs); i++ {
		b.Get(i)
	}
	if err := s.ApplyBatch(&b, &res); err != nil {
		t.Fatalf("oversized read-only batch rejected: %v", err)
	}
}

// TestDurableSnapshotAndTail covers the combined path: snapshot, more
// mutations, recovery = snapshot + WAL tail, and compaction dropping the
// covered segments without losing anything.
func TestDurableSnapshotAndTail(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{
		WithShards(2), WithWAL(dir), WithFsync(FsyncAlways),
		WithWALSegmentBytes(512), // rotate often so Compact has work
	}
	s, err := Open(KindEH, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{}
	for i := uint64(0); i < 500; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
		want[i] = i
	}
	d, ok := AsDurable(s)
	if !ok {
		t.Fatal("AsDurable failed on a WithWAL store")
	}
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if s.Stats().SnapshotLSN == 0 {
		t.Fatal("SnapshotLSN still 0 after Snapshot")
	}
	removed, err := d.CompactWAL()
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("CompactWAL removed no segments despite tiny segment size")
	}
	// Tail mutations after the snapshot.
	for i := uint64(500); i < 700; i++ {
		if err := s.Insert(i, i*5); err != nil {
			t.Fatal(err)
		}
		want[i] = i * 5
	}
	s.Delete(0)
	delete(want, 0)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(KindEH, opts...)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	verifyEntries(t, s2, want)
}

// copyDir simulates a crash: with FsyncAlways every acknowledged write is
// in the copied files, exactly as kill -9 would leave them.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		blob, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDurableCrashRecovery snapshots the WAL dir mid-life — no Close, no
// final flush — and recovers from the copy: everything acknowledged
// before the "crash" must be there.
func TestDurableCrashRecovery(t *testing.T) {
	live := t.TempDir()
	s, err := Open(KindShortcutEH, WithWAL(live), WithFsync(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[uint64]uint64{}
	for i := uint64(0); i < 300; i++ {
		if err := s.Insert(i, i+7); err != nil {
			t.Fatal(err)
		}
		want[i] = i + 7
	}
	// The crash: copy the directory while the store is still open.
	crashed := t.TempDir()
	copyDir(t, live, crashed)

	s2, err := Open(KindShortcutEH, WithWAL(crashed), WithFsync(FsyncAlways))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer s2.Close()
	verifyEntries(t, s2, want)
}

// TestDurableTornTailRecovery appends garbage to the newest segment —
// half a record, as a crash mid-write leaves it — and recovery must
// truncate it and serve everything before it.
func TestDurableTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithWAL(dir), WithFsync(FsyncAlways)}
	s, err := Open(KindEH, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{}
	for i := uint64(0); i < 100; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
		want[i] = i
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail: a plausible header promising more bytes than exist.
	var segPath string
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") {
			segPath = filepath.Join(dir, e.Name())
		}
	}
	if segPath == "" {
		t.Fatal("no segment found")
	}
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{40, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(KindEH, opts...)
	if err != nil {
		t.Fatalf("recovery over torn tail: %v", err)
	}
	defer s2.Close()
	verifyEntries(t, s2, want)
	// And the store must still accept durable writes.
	if err := s2.Insert(1000, 1); err != nil {
		t.Fatal(err)
	}
}

// TestDurableAutoSnapshot checks WithSnapshotEvery triggers snapshots and
// compaction on its own, and that recovery after that is intact.
func TestDurableAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{
		WithWAL(dir), WithFsync(FsyncAlways),
		WithSnapshotEvery(100), WithWALSegmentBytes(1024),
	}
	s, err := Open(KindEH, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{}
	for i := uint64(0); i < 500; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
		want[i] = i
	}
	st := s.Stats()
	if st.SnapshotLSN == 0 {
		t.Fatal("automatic snapshot never triggered")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(KindEH, opts...)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	verifyEntries(t, s2, want)
}

// TestDurableSkipsInvalidSnapshot corrupts the newest snapshot; recovery
// must fall back (here: to pure WAL replay) instead of failing or loading
// garbage.
func TestDurableSkipsInvalidSnapshot(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithWAL(dir), WithFsync(FsyncAlways)}
	s, err := Open(KindEH, opts...)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{}
	for i := uint64(0); i < 200; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
		want[i] = i
	}
	d, _ := AsDurable(s)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// No compaction: the full WAL is still present as the fallback.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			path := filepath.Join(dir, e.Name())
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			blob[len(blob)/2] ^= 0xFF
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	s2, err := Open(KindEH, opts...)
	if err != nil {
		t.Fatalf("recovery with corrupt snapshot: %v", err)
	}
	defer s2.Close()
	verifyEntries(t, s2, want)
}

// TestDurableEscapeHatches pins the escape hatches of a WithWAL store:
// AsDurable and AsReplicable reach the durable wrapper, plain or sharded,
// and the wrapper decorates exactly one inner store — the unsharded store
// over its table, or the sharded fan-out.
func TestDurableEscapeHatches(t *testing.T) {
	s, err := Open(KindEH, WithWAL(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Insert(7, 70); err != nil {
		t.Fatal(err)
	}
	if _, ok := AsReplicable(s); !ok {
		t.Fatal("AsReplicable failed on a durable store")
	}
	d, ok := AsDurable(s)
	if !ok {
		t.Fatal("AsDurable failed on a durable store")
	}
	inner, ok := d.(*durableStore).inner.(*store)
	if !ok || inner.sc != nil {
		t.Fatalf("durable KindEH store wraps %T, want the unsharded EH *store", d.(*durableStore).inner)
	}
	if v, ok := inner.eh.Lookup(7); !ok || v != 70 {
		t.Fatalf("table Lookup(7) = %d, %v", v, ok)
	}
	sh, err := Open(KindShortcutEH, WithShards(2), WithWAL(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	d, ok = AsDurable(sh)
	if !ok {
		t.Fatal("AsDurable failed on a sharded durable store")
	}
	if _, ok := d.(*durableStore).inner.(*sharded); !ok {
		t.Fatalf("sharded durable store wraps %T, want *sharded", d.(*durableStore).inner)
	}
}

// TestDurableSnapshotCoversOnlyDurableRecords pins the recovery
// invariant behind Snapshot's pre-sync: under FsyncOff, snapshot, then
// "crash" (copy the dir without closing); the copy's log tail must reach
// the snapshot position, so post-restart appends never reuse LSNs the
// snapshot claims.
func TestDurableSnapshotCoversOnlyDurableRecords(t *testing.T) {
	live := t.TempDir()
	s, err := Open(KindEH, WithWAL(live), WithFsync(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := map[uint64]uint64{}
	for i := uint64(0); i < 50; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
		want[i] = i
	}
	d, _ := AsDurable(s)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	crashed := t.TempDir()
	copyDir(t, live, crashed)
	s2, err := Open(KindEH, WithWAL(crashed), WithFsync(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	verifyEntries(t, s2, want)
	st := s2.Stats()
	if st.WALRecords < st.SnapshotLSN {
		t.Fatalf("log position %d fell below snapshot position %d after recovery",
			st.WALRecords, st.SnapshotLSN)
	}
	// New durable writes, another crash-copy, and nothing may vanish.
	if err := s2.Insert(1000, 1); err != nil {
		t.Fatal(err)
	}
	want[1000] = 1
	crashed2 := t.TempDir()
	copyDir(t, crashed, crashed2)
	s3, err := Open(KindEH, WithWAL(crashed2), WithFsync(FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	verifyEntries(t, s3, want)
}

// TestDurableRecoveryHoleDetected pins the loud-failure contract: when
// the newest snapshot is corrupted AFTER its WAL prefix was compacted
// away, the lost records exist nowhere — Open must refuse instead of
// silently serving a keyspace with a hole.
func TestDurableRecoveryHoleDetected(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithWAL(dir), WithFsync(FsyncAlways), WithWALSegmentBytes(512)}
	s, err := Open(KindEH, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 300; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := AsDurable(s)
	if err := d.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if removed, err := d.CompactWAL(); err != nil || removed == 0 {
		t.Fatalf("CompactWAL = %d, %v — need segments actually removed", removed, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			path := filepath.Join(dir, e.Name())
			blob, _ := os.ReadFile(path)
			blob[len(blob)/2] ^= 0xFF
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := Open(KindEH, opts...); err == nil || !strings.Contains(err.Error(), "recovery hole") {
		t.Fatalf("Open over a snapshot/WAL hole = %v, want a recovery-hole error", err)
	}
}

// TestDurableOptionValidation pins the option error paths.
func TestDurableOptionValidation(t *testing.T) {
	if _, err := Open(KindEH, WithWAL("")); err == nil {
		t.Fatal("WithWAL(\"\") accepted")
	}
	if _, err := Open(KindEH, WithWAL(t.TempDir()), WithFsync(FsyncMode(42))); err == nil {
		t.Fatal("unknown fsync mode accepted")
	}
	if _, err := Open(KindEH, WithWAL(t.TempDir()), WithSnapshotEvery(-1)); err == nil {
		t.Fatal("negative WithSnapshotEvery accepted")
	}
	if _, err := Open(KindEH, WithWAL(t.TempDir()), WithWALSegmentBytes(0)); err == nil {
		t.Fatal("zero WithWALSegmentBytes accepted")
	}
	if _, err := ParseFsyncMode("never"); err == nil {
		t.Fatal("ParseFsyncMode accepted an unknown name")
	}
	// Non-durable stores do not expose the management surface.
	s, err := Open(KindEH)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := AsDurable(s); ok {
		t.Fatal("AsDurable succeeded on a store without WithWAL")
	}
}

// singleOpLog is the segment a log holds after a durable Insert of
// (0x0102030405060708, 0x1112131415161718), a Delete of that key, and an
// Insert of (7, 70), with FsyncOff and a clean Close: three records, one
// PUTBATCH, one DELBATCH, one PUTBATCH, each carrying one entry. The bytes
// were written by the log's former per-kind append calls (AppendPut,
// AppendDelete); the single ops now reach the log through AppendBatch and
// must keep writing them exactly.
const singleOpLog = "1d000000182f6bdc0100000000000000060100000008070605040302011817161514131211" +
	"150000008dbcf8830200000000000000070100000008070605040302011d000000d5a30d2f" +
	"0300000000000000060100000007000000000000004600000000000000"

// TestDurableSingleOpRecordsGolden pins the on-disk record of the durable
// single operations byte for byte.
func TestDurableSingleOpRecordsGolden(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(KindEH, WithWAL(dir), WithFsync(FsyncOff))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(0x0102030405060708, 0x1112131415161718); err != nil {
		t.Fatal(err)
	}
	if !s.Delete(0x0102030405060708) {
		t.Fatal("Delete missed the inserted key")
	}
	if err := s.Insert(7, 70); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != singleOpLog {
		t.Fatalf("log bytes\n got %x\nwant %s", got, singleOpLog)
	}
}

// TestDurableRecoversSingleOpLog replays a log in the former per-kind
// layout and keeps appending to it.
func TestDurableRecoversSingleOpLog(t *testing.T) {
	dir := t.TempDir()
	seg, err := hex.DecodeString(singleOpLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithWAL(dir), WithFsync(FsyncOff)}
	s, err := Open(KindEH, opts...)
	if err != nil {
		t.Fatal(err)
	}
	verifyEntries(t, s, map[uint64]uint64{7: 70})
	if got := s.Stats().WALRecords; got != 3 {
		t.Fatalf("WALRecords = %d, want 3", got)
	}
	if err := s.Insert(8, 80); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(KindEH, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	verifyEntries(t, s, map[uint64]uint64{7: 70, 8: 80})
}

// TestDurableDeleteLogsFirst pins Delete's log-first order: when the log
// refuses the record, Delete reports false and the key stays — in memory
// and after recovery.
func TestDurableDeleteLogsFirst(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithWAL(dir), WithFsync(FsyncAlways)}
	s, err := Open(KindEH, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	d := s.(*durableStore)
	if err := d.log.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Delete(1) {
		t.Fatal("Delete reported success on a closed log")
	}
	if v, ok := d.inner.Lookup(1); !ok || v != 10 {
		t.Fatalf("key gone after a refused Delete: %d, %v", v, ok)
	}
	if err := s.Close(); err != nil && !errors.Is(err, wal.ErrClosed) {
		t.Fatal(err)
	}
	if s.Delete(1) {
		t.Fatal("Delete reported success on a closed store")
	}
	s, err = Open(KindEH, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	verifyEntries(t, s, map[uint64]uint64{1: 10})
}

// TestDurableClosedOps pins the lifecycle: operations after Close fail the
// same way the plain store's do.
func TestDurableClosedOps(t *testing.T) {
	s, err := Open(KindEH, WithWAL(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if err := s.Insert(1, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close = %v, want ErrClosed", err)
	}
	if ok := s.Delete(1); ok {
		t.Fatal("Delete after Close reported presence")
	}
	d, _ := AsDurable(s)
	if err := d.Snapshot(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Snapshot after Close = %v, want ErrClosed", err)
	}
	if _, err := d.CompactWAL(); !errors.Is(err, ErrClosed) {
		t.Fatalf("CompactWAL after Close = %v, want ErrClosed", err)
	}
}
