package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// gatedSync replaces the log's fdatasync with one that announces each call
// on started and then waits for its verdict: tests decide which of several
// syncs in flight finishes first, and how.
type gatedSync struct {
	started chan int // the 1-based number of a sync that just began
	verdict []chan error
	calls   atomic.Int32
}

func gateSyncs(t *testing.T, n int) *gatedSync {
	g := &gatedSync{started: make(chan int, n), verdict: make([]chan error, n+1)}
	for i := range g.verdict {
		g.verdict[i] = make(chan error, 1)
	}
	prev := fdatasync
	fdatasync = func(*os.File) error {
		k := int(g.calls.Add(1))
		if k > n {
			return nil // beyond the scripted ones: Close's seal
		}
		g.started <- k
		return <-g.verdict[k]
	}
	t.Cleanup(func() { fdatasync = prev })
	return g
}

// awaitStart returns the number of the next sync to begin.
func (g *gatedSync) awaitStart(t *testing.T) int {
	t.Helper()
	select {
	case k := <-g.started:
		return k
	case <-time.After(5 * time.Second):
		t.Fatal("no sync began")
		return 0
	}
}

// appendAsync appends one record from its own goroutine and delivers the
// outcome on the returned channel.
func appendAsync(l *Log, key uint64) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := appendPut(l, []uint64{key}, []uint64{key})
		done <- err
	}()
	return done
}

func waitLastLSN(t *testing.T, l *Log, lsn uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); l.LastLSN() < lsn; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("record %d was never appended", lsn)
		}
	}
}

func settled(t *testing.T, done <-chan error, what string) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never returned", what)
		return nil
	}
}

func stillWaiting(t *testing.T, done <-chan error, what string) {
	t.Helper()
	select {
	case err := <-done:
		t.Fatalf("%s returned (%v) before a sync covered it", what, err)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestSyncsOverlap scripts the two-deep pipeline: an appender whose record
// a running sync cannot cover starts its own beside it, one whose record is
// covered only waits, a third appender waits for a free slot, and the
// durable position never moves back when the later sync finishes first.
func TestSyncsOverlap(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Mode: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := gateSyncs(t, 3)

	a := appendAsync(l, 1) // leads sync 1, which covers record 1
	if k := g.awaitStart(t); k != 1 {
		t.Fatalf("sync %d began first", k)
	}
	b := appendAsync(l, 2) // record 2 landed after sync 1's flush: its own sync, now
	if k := g.awaitStart(t); k != 2 {
		t.Fatalf("record 2 did not start a second sync beside the first (sync %d began)", k)
	}
	covered := make(chan error, 1)
	go func() { covered <- l.syncTo(2) }() // sync 2 covers record 2: nothing to start
	c := appendAsync(l, 3)                 // record 3: covered by neither, and both slots are taken
	waitLastLSN(t, l, 3)
	stillWaiting(t, covered, "the covered waiter")
	stillWaiting(t, c, "the third appender")
	if n := g.calls.Load(); n != 2 {
		t.Fatalf("%d syncs began with two in flight and nobody uncovered but the third appender, want 2", n)
	}

	g.verdict[2] <- nil // the later sync finishes first
	if err := settled(t, b, "the second appender"); err != nil {
		t.Fatal(err)
	}
	if err := settled(t, covered, "the covered waiter"); err != nil {
		t.Fatal(err)
	}
	if k := g.awaitStart(t); k != 3 {
		t.Fatalf("the third appender did not take the freed slot (sync %d began)", k)
	}
	stillWaiting(t, a, "the first appender, inside its own sync,")
	if got := l.Stats().SyncedLSN; got != 2 {
		t.Fatalf("SyncedLSN = %d after sync 2, want 2", got)
	}

	g.verdict[1] <- nil // the earlier sync, covering less, finishes later
	if err := settled(t, a, "the first appender"); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().SyncedLSN; got != 2 {
		t.Fatalf("SyncedLSN = %d after the earlier sync finished last, want it to stay 2", got)
	}
	stillWaiting(t, c, "the third appender")
	g.verdict[3] <- nil
	if err := settled(t, c, "the third appender"); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.SyncedLSN != 3 || st.Syncs != 3 {
		t.Fatalf("stats = %+v, want 3 records durable after 3 syncs", st)
	}
}

// TestFreedSlotsStartOneSync: two appenders wait for a slot behind two
// syncs in flight, and both slots free at once. One of the waiters leads one
// sync that covers them both; the other, woken by the same broadcast, must
// not take the second slot to sync the same data again.
func TestFreedSlotsStartOneSync(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Mode: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := gateSyncs(t, 3)
	a := appendAsync(l, 1)
	g.awaitStart(t)
	b := appendAsync(l, 2)
	g.awaitStart(t)
	c, d := appendAsync(l, 3), appendAsync(l, 4)
	waitLastLSN(t, l, 4)
	stillWaiting(t, c, "the third appender")
	stillWaiting(t, d, "the fourth appender")

	g.verdict[1] <- nil
	g.verdict[2] <- nil
	for _, done := range []<-chan error{a, b} {
		if err := settled(t, done, "a leader"); err != nil {
			t.Fatal(err)
		}
	}
	if k := g.awaitStart(t); k != 3 {
		t.Fatalf("sync %d began, want the third", k)
	}
	stillWaiting(t, c, "the third appender")
	stillWaiting(t, d, "the fourth appender")
	if n := g.calls.Load(); n != 3 {
		t.Fatalf("%d syncs began for two waiters one flush covers, want one more than the first two", n)
	}
	g.verdict[3] <- nil
	for _, done := range []<-chan error{c, d} {
		if err := settled(t, done, "a waiter"); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.SyncedLSN != 4 || st.Syncs != 3 {
		t.Fatalf("stats = %+v, want 4 records durable after 3 syncs", st)
	}
}

// TestOverlapWaitsForAsBigAGroup scripts the rule that keeps many writers
// grouping: a record does not start a sync beside one that carries a group
// of three — it would split the next group, and a large cohort would sync
// twice as often for half as much — until as many records wait as that
// sync carries.
func TestOverlapWaitsForAsBigAGroup(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Mode: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	g := gateSyncs(t, 4)
	a := appendAsync(l, 1)
	g.awaitStart(t)
	b := appendAsync(l, 2) // one record waits, sync 1 carries one: beside it
	g.awaitStart(t)
	group := []<-chan error{appendAsync(l, 3), appendAsync(l, 4), appendAsync(l, 5)}
	waitLastLSN(t, l, 5)
	stillWaiting(t, group[2], "an appender without a slot")
	g.verdict[1] <- nil // frees a slot: sync 3 carries records 3 to 5
	if err := settled(t, a, "the first appender"); err != nil {
		t.Fatal(err)
	}
	if k := g.awaitStart(t); k != 3 {
		t.Fatalf("sync %d began, want the third", k)
	}
	g.verdict[2] <- nil // leaves sync 3 alone in flight, a slot free
	if err := settled(t, b, "the second appender"); err != nil {
		t.Fatal(err)
	}

	late := []<-chan error{appendAsync(l, 6)}
	waitLastLSN(t, l, 6)
	stillWaiting(t, late[0], "one record beside a sync of three")
	late = append(late, appendAsync(l, 7))
	waitLastLSN(t, l, 7)
	stillWaiting(t, late[1], "two records beside a sync of three")
	if n := g.calls.Load(); n != 3 {
		t.Fatalf("%d syncs began, want none beside the group of three yet", n)
	}
	late = append(late, appendAsync(l, 8)) // three wait, three are in flight
	if k := g.awaitStart(t); k != 4 {
		t.Fatalf("sync %d began, want the fourth beside the third", k)
	}
	g.verdict[4] <- nil
	g.verdict[3] <- nil
	for _, done := range append(group, late...) {
		if err := settled(t, done, "an appender"); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.SyncedLSN != 8 || st.Syncs != 4 {
		t.Fatalf("stats = %+v, want 8 records durable after 4 syncs", st)
	}
}

// TestFailedSyncIsFailStop fails one of two syncs in flight: nothing above
// the position durable at that moment may be acknowledged — not by the
// other sync coming back clean, not by a later one — and the log refuses
// appends from then on.
func TestFailedSyncIsFailStop(t *testing.T) {
	for _, failed := range []int{1, 2} {
		l, err := Open(t.TempDir(), Options{Mode: FsyncAlways}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := appendPut(l, []uint64{9}, []uint64{9}); err != nil { // record 1, durable
			t.Fatal(err)
		}
		g := gateSyncs(t, 2)
		a := appendAsync(l, 1)
		g.awaitStart(t)
		b := appendAsync(l, 2)
		g.awaitStart(t)
		c := appendAsync(l, 3) // waits for a slot
		waitLastLSN(t, l, 4)

		// The failing sync's own appender returns once the failure is
		// published; only then does the other sync come back clean.
		boom := errors.New("injected EIO")
		leaders := []<-chan error{nil, a, b}
		g.verdict[failed] <- boom
		if err := settled(t, leaders[failed], "the failed sync's appender"); !errors.Is(err, boom) {
			t.Errorf("sync %d failed: its appender got %v, want the sync error", failed, err)
		}
		g.verdict[3-failed] <- nil
		for name, done := range map[string]<-chan error{"other sync's": leaders[3-failed], "waiting": c} {
			if err := settled(t, done, name); !errors.Is(err, boom) {
				t.Errorf("sync %d failed: the %s appender got %v, want the sync error", failed, name, err)
			}
		}
		if got := l.Stats().SyncedLSN; got != 1 {
			t.Errorf("sync %d failed: SyncedLSN = %d, want 1 (what was durable before)", failed, got)
		}
		if n := g.calls.Load(); n != 2 {
			t.Errorf("sync %d failed: %d syncs were issued, want no retry after the failure", failed, n)
		}
		if _, err := appendPut(l, []uint64{5}, []uint64{5}); !errors.Is(err, boom) {
			t.Errorf("sync %d failed: a later append got %v, want the sticky sync error", failed, err)
		}
		if err := l.Sync(); !errors.Is(err, boom) {
			t.Errorf("sync %d failed: Sync got %v, want the sticky sync error", failed, err)
		}
		if err := l.Close(); !errors.Is(err, boom) {
			t.Errorf("sync %d failed: Close got %v, want the sticky sync error", failed, err)
		}
	}
}

// TestTwoWritersOverlapTheirSyncs is the regression test for the commit
// ping-pong: with one sync at a time, two closed-loop appenders each wait
// out the other's sync — which started before their record and cannot cover
// it — and then pay their own, so two writers commit no faster than one.
// Against a fixed-cost sync the pair must come close to twice one writer's
// rate. (Sixteen writers cannot see this: they group either way.)
func TestTwoWritersOverlapTheirSyncs(t *testing.T) {
	prev := fdatasync
	fdatasync = func(*os.File) error { time.Sleep(200 * time.Microsecond); return nil }
	defer func() { fdatasync = prev }()
	l, err := Open(t.TempDir(), Options{Mode: FsyncAlways}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rate := func(writers int) float64 {
		const perWriter = 400
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := uint64(0); i < perWriter; i++ {
					if _, err := appendPut(l, []uint64{i}, []uint64{i}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		return float64(writers*perWriter) / time.Since(start).Seconds()
	}
	// A loaded machine stretches sleeps unevenly; one clean attempt is proof.
	var one, two float64
	for attempt := 0; attempt < 3 && two < 1.6*one || attempt == 0; attempt++ {
		one, two = rate(1), rate(2)
	}
	t.Logf("one writer %.0f records/s, two writers %.0f (%.2fx)", one, two, two/one)
	if two < 1.6*one {
		t.Fatalf("two writers commit %.0f records/s against one writer's %.0f: their syncs do not overlap", two, one)
	}
}

// TestNoPreallocationStillWorks: on a filesystem that cannot or will not
// reserve space the log extends its segments by writing — every layer above
// the file size (rotation, recovery, reopening for append) must not care.
func TestNoPreallocationStillWorks(t *testing.T) {
	for _, errno := range []syscall.Errno{syscall.EOPNOTSUPP, syscall.ENOSPC} {
		prev := fallocate
		fallocate = func(*os.File, int64) error { return errno }
		dir := t.TempDir()
		l, err := Open(dir, Options{Mode: FsyncAlways, SegmentBytes: 256}, nil)
		if err != nil {
			t.Fatalf("%v: %v", errno, err)
		}
		for i := uint64(1); i <= 20; i++ {
			if _, err := appendPut(l, []uint64{i}, []uint64{i}); err != nil {
				t.Fatalf("%v: append %d: %v", errno, i, err)
			}
		}
		st := l.Stats()
		if st.Segments < 3 || st.SyncedLSN != 20 {
			t.Fatalf("%v: stats = %+v, want several segments and 20 durable records", errno, st)
		}
		var onDisk int64
		segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		for _, p := range segs {
			fi, err := os.Stat(p)
			if err != nil {
				t.Fatal(err)
			}
			onDisk += fi.Size()
		}
		if onDisk != st.Bytes {
			t.Fatalf("%v: segments hold %d bytes on disk, %d of records: something preallocated", errno, onDisk, st.Bytes)
		}
		fallocate = prev
		// Without Close — as after a crash — and with preallocation back.
		var got []rec
		l2, err := Open(dir, Options{SegmentBytes: 256}, collect(&got))
		if err != nil {
			t.Fatalf("%v: reopen: %v", errno, err)
		}
		if len(got) != 20 {
			t.Fatalf("%v: replayed %d records, want 20", errno, len(got))
		}
		if lsn, err := appendPut(l2, []uint64{21}, []uint64{21}); err != nil || lsn != 21 {
			t.Fatalf("%v: append after reopen = %d, %v", errno, lsn, err)
		}
		l2.Close()
		l.Close()
	}
}

// BenchmarkAppendAlways measures the FsyncAlways commit path on the real
// device: closed-loop writers, each appending one 32-pair batch and waiting
// for it to be durable. Two writers are the ping-pong case the two-deep
// sync pipeline exists for; sixteen and sixty-four are the grouping case it
// must not cost — compare rec/s across writer counts, and rec/sync for how
// much each sync carried.
func BenchmarkAppendAlways(b *testing.B) {
	keys, vals := make([]uint64, 32), make([]uint64, 32)
	for i := range keys {
		keys[i], vals[i] = uint64(i)*0x9E3779B97F4A7C15, uint64(i)
	}
	for _, writers := range []int{1, 2, 4, 16, 64} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			l, err := Open(b.TempDir(), Options{Mode: FsyncAlways}, nil)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				n := b.N / writers
				if w < b.N%writers {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						if _, err := appendPut(l, keys, vals); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			st := l.Stats()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rec/s")
			b.ReportMetric(float64(st.LastLSN)/float64(st.Syncs), "rec/sync")
		})
	}
}
