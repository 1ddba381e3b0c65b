package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"vmshortcut/internal/op"
)

// collectTail runs Tail(from) until n records arrive (or a timeout),
// returning the records and Tail's error.
func collectTail(t *testing.T, l *Log, from uint64, n int) ([]TailRecord, error) {
	t.Helper()
	var (
		mu   sync.Mutex
		recs []TailRecord
	)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- l.Tail(from, stop, func(r TailRecord) error {
			mu.Lock()
			recs = append(recs, TailRecord{LSN: r.LSN, Code: r.Code, Payload: append([]byte(nil), r.Payload...)})
			got := len(recs)
			mu.Unlock()
			if got == n {
				close(stop)
			}
			return nil
		})
	}()
	select {
	case err := <-errc:
		mu.Lock()
		defer mu.Unlock()
		return recs, err
	case <-time.After(10 * time.Second):
		t.Fatalf("tail did not deliver %d records in time", n)
		return nil, nil
	}
}

func TestTailCatchUpThenLive(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Mode: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 5; i++ {
		if _, err := appendPut(l, []uint64{i}, []uint64{i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	// Appends racing the tail exercise the live path.
	go func() {
		for i := uint64(6); i <= 20; i++ {
			appendPut(l, []uint64{i}, []uint64{i * 10})
		}
	}()
	recs, err := collectTail(t, l, 0, 20)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
		if r.Code != OpPut {
			t.Fatalf("record %d has code 0x%02x", i, r.Code)
		}
		var b op.Batch
		if err := op.DecodePayload(r.Code, r.Payload, &b); err != nil {
			t.Fatalf("record %d payload: %v", i, err)
		}
		if b.Len() != 1 || b.Keys()[0] != r.LSN {
			t.Fatalf("record %d decoded to %d pairs, key %d", i, b.Len(), b.Keys()[0])
		}
	}
}

func TestTailResumeFromMidLog(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Mode: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 10; i++ {
		if _, err := appendDel(l, []uint64{i}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := collectTail(t, l, 7, 3)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	if len(recs) != 3 || recs[0].LSN != 8 || recs[2].LSN != 10 {
		t.Fatalf("resume from 7 delivered %+v", recs)
	}
}

func TestTailAcrossRotation(t *testing.T) {
	// Tiny segments: every few records rotate, so both the catch-up scan
	// and the live follow cross segment boundaries.
	l, err := Open(t.TempDir(), Options{Mode: FsyncOff, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 50
	for i := uint64(1); i <= n/2; i++ {
		if _, err := appendPut(l, []uint64{i}, []uint64{i}); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		for i := uint64(n/2 + 1); i <= n; i++ {
			appendPut(l, []uint64{i}, []uint64{i})
		}
	}()
	recs, err := collectTail(t, l, 0, n)
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
	}
	if st := l.Stats(); st.Segments < 3 {
		t.Fatalf("test wanted rotation, got %d segments", st.Segments)
	}
}

func TestTailCompactedPosition(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Mode: FsyncOff, SegmentBytes: 128}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 30; i++ {
		if _, err := appendPut(l, []uint64{i}, []uint64{i}); err != nil {
			t.Fatal(err)
		}
	}
	if removed, err := l.Compact(20); err != nil || removed == 0 {
		t.Fatalf("compact removed %d segments, err %v", removed, err)
	}
	oldest := l.OldestLSN()
	if oldest <= 1 {
		t.Fatalf("compact left oldest at %d", oldest)
	}
	err = l.Tail(0, nil, func(TailRecord) error { return nil })
	if !errors.Is(err, ErrCompacted) {
		t.Fatalf("tail from 0 after compact: %v, want ErrCompacted", err)
	}
	// From the compaction horizon onward the tail still works.
	recs, err := collectTail(t, l, oldest-1, int(30-(oldest-1)))
	if err != nil {
		t.Fatalf("tail from %d: %v", oldest-1, err)
	}
	if recs[0].LSN != oldest {
		t.Fatalf("first record %d, want %d", recs[0].LSN, oldest)
	}
}

func TestTailEndsOnClose(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Mode: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := appendPut(l, []uint64{1}, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	errc := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		first := true
		errc <- l.Tail(0, nil, func(r TailRecord) error {
			got = append(got, r.LSN)
			if first {
				first = false
				close(started)
			}
			return nil
		})
	}()
	<-started
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("tail after close: %v, want ErrClosed", err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("tail delivered %v before close", got)
	}
}

func TestTailFromBeyondEnd(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Mode: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := appendPut(l, []uint64{1}, []uint64{2}); err != nil {
		t.Fatal(err)
	}
	if err := l.Tail(5, nil, func(TailRecord) error { return nil }); err == nil {
		t.Fatal("tail from beyond the log end must fail")
	}
}

func TestTailCallbackErrorStops(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Mode: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 3; i++ {
		if _, err := appendPut(l, []uint64{i}, []uint64{i}); err != nil {
			t.Fatal(err)
		}
	}
	boom := fmt.Errorf("boom")
	err = l.Tail(0, nil, func(r TailRecord) error {
		if r.LSN == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("tail: %v, want the callback's error", err)
	}
}

// TestTailManyConcurrent runs several tailers against a writer storm:
// each must see every LSN exactly once, in order — under -race this also
// vets the wake-channel handoff.
func TestTailManyConcurrent(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Mode: FsyncOff, SegmentBytes: 4096}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 400
	const tails = 3
	var wg sync.WaitGroup
	errs := make([]error, tails)
	seqs := make([][]uint64, tails)
	for ti := 0; ti < tails; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			stop := make(chan struct{})
			errs[ti] = l.Tail(0, stop, func(r TailRecord) error {
				seqs[ti] = append(seqs[ti], r.LSN)
				if r.LSN == n {
					close(stop)
				}
				return nil
			})
		}(ti)
	}
	for w := 0; w < 4; w++ {
		go func(w int) {
			for i := 0; i < n/4; i++ {
				appendPut(l, []uint64{uint64(w)}, []uint64{uint64(i)})
			}
		}(w)
	}
	wg.Wait()
	for ti := 0; ti < tails; ti++ {
		if errs[ti] != nil {
			t.Fatalf("tailer %d: %v", ti, errs[ti])
		}
		if len(seqs[ti]) != n {
			t.Fatalf("tailer %d saw %d records, want %d", ti, len(seqs[ti]), n)
		}
		for i, lsn := range seqs[ti] {
			if lsn != uint64(i+1) {
				t.Fatalf("tailer %d: record %d has LSN %d", ti, i, lsn)
			}
		}
	}
}

// TestTailFollowsPreallocatedSegments follows a log live while appenders
// fill its preallocated segments and rotate through several of them. What
// lies past the active segment's last record reads as zeros until an append
// makes it a record; a tailer whose read-ahead took those zeros for the
// segment's end — or buffered them — would lose records or report a
// healthy log corrupt. Every payload is checked, not only the LSNs.
func TestTailFollowsPreallocatedSegments(t *testing.T) {
	const segBytes = 8 << 10
	dir := t.TempDir()
	l, err := Open(dir, Options{Mode: FsyncOff, SegmentBytes: segBytes}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if fi, err := os.Stat(filepath.Join(dir, segName(1))); err != nil || fi.Size() != segBytes {
		t.Fatalf("the active segment is not preallocated: %v, %v", fi, err)
	}
	const writers, perWriter = 4, 500 // ~37 B a record: the log rotates about nine times
	var wg sync.WaitGroup
	for w := uint64(0); w < writers; w++ {
		wg.Add(1)
		go func(w uint64) {
			defer wg.Done()
			for i := uint64(0); i < perWriter; i++ {
				// The value repeats the key, so a record proves itself.
				if _, err := appendPut(l, []uint64{w<<32 | i}, []uint64{w<<32 | i}); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					time.Sleep(time.Millisecond) // let the tailer catch up and wait
				}
			}
		}(w)
	}
	next := make([]uint64, writers) // per writer: the i its next record must carry
	recs, err := collectTail(t, l, 0, writers*perWriter)
	wg.Wait()
	if err != nil {
		t.Fatalf("tail: %v", err)
	}
	var b op.Batch
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has LSN %d", i, r.LSN)
		}
		if err := op.DecodePayload(r.Code, r.Payload, &b); err != nil || b.Len() != 1 || b.Keys()[0] != b.Vals()[0] {
			t.Fatalf("record %d does not decode to its own key: %v", r.LSN, err)
		}
		if w, i := b.Keys()[0]>>32, b.Keys()[0]&0xFFFFFFFF; w >= writers || i != next[w] {
			t.Fatalf("record %d is writer %d's append %d, want its append %d", r.LSN, w, i, next[w])
		} else {
			next[w]++
		}
	}
	if st := l.Stats(); st.Segments < 5 {
		t.Fatalf("test wanted several rotations, got %d segments", st.Segments)
	}
}
