package sceh

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vmshortcut/internal/workload"
)

// parkedLoad grows a fresh table through three doublings with no lookup and
// then idles for well over ten 1 ms ticks. It returns the table, the next
// unused key, how many requests the load queued, and the stats New left.
func parkedLoad(t *testing.T) (tbl *Table, next, queued uint64, s0 Stats) {
	t.Helper()
	tbl = newTable(t, Config{PollInterval: time.Millisecond})
	s0 = tbl.Stats()
	next = grow(t, tbl, 1, 3)
	queued = tbl.TradVersion() - tbl.ShortcutVersion()
	time.Sleep(30 * time.Millisecond)
	s := tbl.Stats()
	if s.Remaps != s0.Remaps || s.CreatesApplied != 1 || s.UpdatesApplied != 0 {
		t.Fatalf("the mapper replayed with no reader: remaps %d -> %d, creates %d, updates %d",
			s0.Remaps, s.Remaps, s.CreatesApplied, s.UpdatesApplied)
	}
	if !tbl.parked.Load() {
		t.Fatal("mapper not parked after an idle write-only load")
	}
	return tbl, next, queued, s0
}

// TestParkWriteOnlyLoad: ticks with no reader prune the backlog down to the
// last create and the updates after it, and issue no mmap. WaitSync then
// replays exactly that held tail.
func TestParkWriteOnlyLoad(t *testing.T) {
	tbl, next, queued, s0 := parkedLoad(t)
	pruned := tbl.Stats().UpdatesSuperseded
	if !tbl.WaitSync(5 * time.Second) {
		t.Fatal("never synced")
	}
	s := tbl.Stats()
	if s.CreatesApplied != 2 || s.Remaps == s0.Remaps {
		t.Fatalf("WaitSync replayed %d creates, %d remaps: want one create", s.CreatesApplied-1, s.Remaps-s0.Remaps)
	}
	// The held tail is what WaitSync replayed: one create and its updates.
	if s.UpdatesSuperseded != pruned || pruned+s.UpdatesApplied+1 != queued {
		t.Fatalf("superseded %d (%d before WaitSync) + applied %d + 1 create != %d queued",
			s.UpdatesSuperseded, pruned, s.UpdatesApplied, queued)
	}
	for k := uint64(1); k < next; k++ {
		if v, ok := lookupShortcut(tbl, k); !ok || v != k {
			t.Fatalf("lookupShortcut(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestParkFallbackWakes: one lookup that falls back wakes the parked
// mapper, which catches up with no WaitSync.
func TestParkFallbackWakes(t *testing.T) {
	tbl, next, _, _ := parkedLoad(t)
	if v, ok := tbl.Lookup(1); !ok || v != 1 {
		t.Fatalf("Lookup(1) = %d,%v", v, ok)
	}
	deadline := time.Now().Add(time.Second)
	for !tbl.InSync() {
		if time.Now().After(deadline) {
			t.Fatal("a fallback lookup did not bring the shortcut in sync within 1s")
		}
		time.Sleep(time.Millisecond)
	}
	if s := tbl.Stats(); s.TraditionalLookups != 1 || s.CreatesApplied != 2 {
		t.Fatalf("%d fallbacks, %d creates: want 1 and 2", s.TraditionalLookups, s.CreatesApplied)
	}
	for k := uint64(1); k < next; k++ {
		if v, ok := lookupShortcut(tbl, k); !ok || v != k {
			t.Fatalf("lookupShortcut(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestParkWakeKicksOnlyWhenParked: with no tick to notice fallbacks, a
// fallback lookup replays the backlog only if it finds the mapper parked,
// and then it clears the flag and kicks.
func TestParkWakeKicksOnlyWhenParked(t *testing.T) {
	tbl := newTable(t, Config{PollInterval: time.Hour})
	grow(t, tbl, 1, 2)
	tbl.Lookup(1)
	time.Sleep(20 * time.Millisecond)
	if tbl.InSync() {
		t.Fatal("a fallback kicked a mapper that was not parked")
	}
	tbl.parked.Store(true) // as a tick that found a backlog and no reader
	if v, ok := tbl.Lookup(1); !ok || v != 1 {
		t.Fatalf("Lookup(1) = %d,%v", v, ok)
	}
	if tbl.parked.Load() {
		t.Fatal("the fallback left the mapper parked")
	}
	deadline := time.Now().Add(time.Second)
	for !tbl.InSync() {
		if time.Now().After(deadline) {
			t.Fatal("the woken mapper did not catch up within 1s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParkReadersWakeDuringWrites: four readers fall back while the writer
// grows the table through four doublings, each waking a mapper that may be
// parked. Every answer must be right; once the writer stops, the readers
// alone bring the shortcut in sync. Run with -race.
func TestParkReadersWakeDuringWrites(t *testing.T) {
	tbl := newTable(t, Config{PollInterval: time.Millisecond})
	c := &lockedTable{t: tbl}
	var written atomic.Uint64 // keys 1..written are in the table, value = key
	var stop atomic.Bool
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		go func(seed uint64) {
			rng := workload.NewRNG(seed)
			for !stop.Load() {
				n := written.Load()
				if n == 0 {
					runtime.Gosched()
					continue
				}
				k := uint64(rng.Intn(int(n))) + 1
				if v, ok := c.Lookup(k); !ok || v != k {
					errs <- errValue(k, v)
					return
				}
			}
			errs <- nil
		}(uint64(r + 1))
	}
	want := tbl.EH().GlobalDepth() + 4
	for k := uint64(1); tbl.EH().GlobalDepth() < want; k++ {
		if err := c.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		written.Store(k)
	}
	stop.Store(true)
	for r := 0; r < 4; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for !tbl.InSync() {
		if time.Now().After(deadline) {
			t.Fatal("fallback readers did not bring the shortcut in sync within 1s")
		}
		if v, ok := c.Lookup(1); !ok || v != 1 {
			t.Fatalf("Lookup(1) = %d,%v", v, ok)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParkCloseReplaysNothing: Close discards a parked backlog instead of
// building a generation nobody can read, and WaitSync then reports false.
func TestParkCloseReplaysNothing(t *testing.T) {
	tbl, err := New(newPool(t), Config{PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	grow(t, tbl, 1, 2)
	before := tbl.Stats().Remaps
	if err := tbl.Close(); err != nil {
		t.Fatal(err)
	}
	if after := tbl.Stats().Remaps; after != before {
		t.Fatalf("Close issued %d remaps", after-before)
	}
	if tbl.WaitSync(10 * time.Millisecond) {
		t.Fatal("WaitSync reported true after Close")
	}
}
