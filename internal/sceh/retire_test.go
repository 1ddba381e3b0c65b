package sceh

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vmshortcut/internal/hashfn"
	"vmshortcut/internal/pool"
	"vmshortcut/internal/sys"
)

// childEnv names the test a re-executed test binary runs in-process.
const childEnv = "SCEH_TEST_CHILD"

// inChild runs body in a re-executed copy of the test binary. A memory
// fault kills a Go process outright — recover() cannot catch it — so the
// parent reports the child's death as this test's failure instead of
// losing the whole run.
func inChild(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	if os.Getenv(childEnv) == t.Name() {
		body(t)
		return
	}
	parts := strings.Split(t.Name(), "/")
	for i, p := range parts {
		parts[i] = "^" + regexp.QuoteMeta(p) + "$"
	}
	cmd := exec.Command(os.Args[0], "-test.run="+strings.Join(parts, "/"), "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), childEnv+"="+t.Name())
	out, err := cmd.CombinedOutput()
	if err == nil && bytes.Contains(out, []byte("--- PASS: "+t.Name())) {
		return
	}
	if m := regexp.MustCompile(`unexpected fault address|SIGSEGV|SIGBUS`).Find(out); m != nil {
		t.Fatalf("child process died on a memory fault (%s): %v\n%s", m, err, tail(out, 40))
	}
	t.Fatalf("child process failed: %v\n%s", err, tail(out, 40))
}

func tail(b []byte, lines int) []byte {
	s := bytes.Split(b, []byte("\n"))
	if len(s) > lines {
		s = s[len(s)-lines:]
	}
	return bytes.Join(s, []byte("\n"))
}

// grow inserts keys next, next+1, ... (value = key) until the table's
// global depth has risen by doublings, returning the next unused key.
func grow(t *testing.T, tbl *Table, next uint64, doublings uint) uint64 {
	t.Helper()
	want := tbl.EH().GlobalDepth() + doublings
	for tbl.EH().GlobalDepth() < want {
		if err := tbl.Insert(next, next); err != nil {
			t.Fatal(err)
		}
		next++
	}
	return next
}

// staleReads looks up keys 1..n through the pinned, possibly retired
// generation st and returns how many hit.
func staleReads(st *scState, n uint64) int {
	hits := 0
	for k := uint64(1); k <= n; k++ {
		if _, found := st.lookup(k); found {
			hits++
		}
	}
	return hits
}

// TestStaleGenerationSurvivesDoublings pins the generation an optimistic
// reader could hold — the published state, loaded before any writer
// moved — across three doublings, then reads through it. Such a reader's
// answers are discarded by its validation; what this test pins down is
// that the read itself never faults.
func TestStaleGenerationSurvivesDoublings(t *testing.T) {
	// One table, each doubling replayed before the next.
	t.Run("table", func(t *testing.T) {
		inChild(t, func(t *testing.T) {
			tbl := newTable(t, Config{})
			next := grow(t, tbl, 1, 1)
			if !tbl.WaitSync(5 * time.Second) {
				t.Fatal("never synced")
			}
			st := tbl.published.Load()
			for i := 0; i < 3; i++ {
				next = grow(t, tbl, next, 1)
				if !tbl.WaitSync(5 * time.Second) {
					t.Fatal("never synced")
				}
			}
			// Every later generation is larger, so the pinned range was
			// retired and never reused: it must answer only misses.
			if hits := staleReads(st, next); hits != 0 {
				t.Fatalf("retired generation answered %d hits, want 0", hits)
			}
		})
	})
	// Two tables shaped like a WithShards(2) store's shards: default poll
	// interval, keys split by hash, each table behind its own lock, and
	// all three doublings queued before the mapper drains them at once.
	t.Run("shards2", func(t *testing.T) {
		inChild(t, func(t *testing.T) {
			var shards [2]*lockedTable
			var pinned [2]*scState
			for i := range shards {
				tbl, err := New(newPool(t), Config{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tbl.Close() })
				shards[i] = &lockedTable{t: tbl}
				pinned[i] = tbl.published.Load()
			}
			gd0 := [2]uint{shards[0].t.EH().GlobalDepth(), shards[1].t.EH().GlobalDepth()}
			k := uint64(1)
			for shards[0].t.EH().GlobalDepth() < gd0[0]+3 || shards[1].t.EH().GlobalDepth() < gd0[1]+3 {
				if err := shards[hashfn.Hash(k)>>63].Insert(k, k); err != nil {
					t.Fatal(err)
				}
				k++
			}
			for i, s := range shards {
				if !s.t.WaitSync(5 * time.Second) {
					t.Fatal("never synced")
				}
				if hits := staleReads(pinned[i], k); hits != 0 {
					t.Fatalf("shard %d: retired generation answered %d hits, want 0", i, hits)
				}
			}
		})
	})
	// Deleting every key frees no bucket page and shrinks no file, so
	// a reader that pinned the live generation reads empty buckets.
	t.Run("delete_all", func(t *testing.T) {
		inChild(t, func(t *testing.T) {
			p, err := pool.New(pool.Config{GrowChunkPages: 2, MaxPages: 1 << 16})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			tbl, err := New(p, Config{PollInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tbl.Close() })
			next := grow(t, tbl, 1, 3)
			if !tbl.WaitSync(5 * time.Second) {
				t.Fatal("never synced")
			}
			st := tbl.published.Load()
			for k := uint64(1); k < next; k++ {
				if !tbl.Delete(k) {
					t.Fatalf("Delete(%d) = false", k)
				}
			}
			if hits := staleReads(st, next); hits != 0 {
				t.Fatalf("pinned generation answered %d hits after deleting every key, want 0", hits)
			}
			if s := p.Stats(); s.FilePages != s.PeakPages {
				t.Fatalf("pool file %d pages, peak %d: the file shrank", s.FilePages, s.PeakPages)
			}
		})
	})
}

// mapping is one entry of /proc/self/smaps.
type mapping struct {
	lo, hi uintptr
	rssKB  int
}

func readSmaps(t *testing.T) []mapping {
	t.Helper()
	data, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	var ms []mapping
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if lo, hi, ok := strings.Cut(f[0], "-"); ok && !strings.HasSuffix(f[0], ":") {
			l, err1 := strconv.ParseUint(lo, 16, 64)
			h, err2 := strconv.ParseUint(hi, 16, 64)
			if err1 == nil && err2 == nil {
				ms = append(ms, mapping{lo: uintptr(l), hi: uintptr(h)})
			}
			continue
		}
		if f[0] == "Rss:" && len(ms) > 0 && len(f) > 1 {
			ms[len(ms)-1].rssKB, _ = strconv.Atoi(f[1])
		}
	}
	return ms
}

// checkRetired requires every reserved range other than the live one to
// lie inside exactly one mapping that holds no memory, and returns the
// retired ranges' total size in slots.
func checkRetired(t *testing.T, tbl *Table) (slots int) {
	t.Helper()
	ms := readSmaps(t)
	for _, a := range tbl.areas {
		if a == tbl.live {
			continue
		}
		slots += a.slots
		lo, hi := a.base, a.base+uintptr(a.slots)<<pageShift
		var over []mapping
		for _, m := range ms {
			if m.lo < hi && lo < m.hi {
				over = append(over, m)
			}
		}
		if len(over) != 1 || over[0].lo > lo || over[0].hi < hi {
			t.Fatalf("retired range %#x-%#x (%d slots) spans %d mappings: %+v", lo, hi, a.slots, len(over), over)
		}
		if over[0].rssKB != 0 {
			t.Fatalf("retired range %#x-%#x holds Rss %d kB", lo, hi, over[0].rssKB)
		}
	}
	return slots
}

// TestRetiredRangesHoldNoMemory grows a table through eight doublings:
// each retired generation must be one mapping with no resident pages, even
// after late readers have loaded from it.
func TestRetiredRangesHoldNoMemory(t *testing.T) {
	tbl := newTable(t, Config{})
	var pinned []*scState
	next := uint64(1)
	for i := 0; i < 8; i++ {
		pinned = append(pinned, tbl.published.Load())
		next = grow(t, tbl, next, 1)
		if !tbl.WaitSync(5 * time.Second) {
			t.Fatal("never synced")
		}
	}
	for _, st := range pinned {
		staleReads(st, 64)
	}
	if len(tbl.areas) != 9 {
		t.Fatalf("%d reserved ranges after 8 doublings, want 9", len(tbl.areas))
	}
	if retired, live := checkRetired(t, tbl), tbl.live.slots; retired >= live {
		t.Fatalf("retired %d slots, live %d: want retired < live under growth", retired, live)
	}
}

// failingHook fails the nth call (counting from 1) of op, and nothing else.
func failingHook(op sys.Op, nth int) func(sys.Op) error {
	calls := 0
	return func(o sys.Op) error {
		if o != op {
			return nil
		}
		calls++
		if calls == nth {
			return errors.New("injected fault")
		}
		return nil
	}
}

// TestFailedCreateFallsBackUntilNextCreate fails one create at a time —
// its overlay of the old generation, its reservation, and the kth mmap
// of its build — and requires the table to answer every key through the
// traditional directory, stay out of sync across later updates, and
// recover with the next create.
func TestFailedCreateFallsBackUntilNextCreate(t *testing.T) {
	cases := []struct {
		name string
		op   sys.Op
		nth  int
	}{
		{"overlay", sys.OpMapShared, 1},
		{"reserve", sys.OpReserve, 1},
		{"build_first_mmap", sys.OpMapShared, 2},
		{"build_second_mmap", sys.OpMapShared, 3},
		{"build_eighth_mmap", sys.OpMapShared, 9},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A pre-sized pool never grows, so every mmap below is the
			// mapper's; the hour-long poll means the mapper drains only
			// when WaitSync kicks it.
			p, err := pool.New(pool.Config{InitialPages: 1 << 12, MaxPages: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			tbl, err := New(p, Config{PollInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tbl.Close() })
			model := map[uint64]uint64{}
			next := uint64(1)
			// growBy inserts fresh keys (value = key) until the directory
			// has doubled n more times.
			growBy := func(n uint) {
				from := next
				next = grow(t, tbl, next, n)
				for k := from; k < next; k++ {
					model[k] = k
				}
			}
			check := func(when string) {
				t.Helper()
				for k, v := range model {
					if got, ok := tbl.Lookup(k); !ok || got != v {
						t.Fatalf("%s: Lookup(%d) = %d,%v, want %d", when, k, got, ok, v)
					}
				}
			}
			growBy(4)
			if !tbl.WaitSync(5 * time.Second) {
				t.Fatal("never synced")
			}

			// Queue one doubling and fail its create.
			growBy(1)
			gd := tbl.EH().GlobalDepth()
			creates := tbl.Stats().CreatesApplied
			sys.SetFaultHook(failingHook(c.op, c.nth))
			synced := tbl.WaitSync(50 * time.Millisecond)
			sys.SetFaultHook(nil)
			if synced || tbl.InSync() || tbl.UsingShortcut() {
				t.Fatal("in sync after a failed create")
			}
			if got := tbl.Stats().CreatesApplied; got != creates {
				t.Fatalf("creates applied went %d -> %d across a failed create", creates, got)
			}
			if got := tbl.Stats().MapperFailures; got != 1 {
				t.Fatalf("MapperFailures = %d, want 1", got)
			}
			check("after the failed create")

			// Splits without a doubling replay no update: still out of sync.
			splits := tbl.EH().Splits
			for ; tbl.EH().Splits < splits+4; next++ {
				if err := tbl.Insert(next, next); err != nil {
					t.Fatal(err)
				}
				model[next] = next
			}
			if tbl.EH().GlobalDepth() != gd {
				t.Fatal("the splits doubled the directory; the no-create window is gone")
			}
			if tbl.WaitSync(20*time.Millisecond) || tbl.InSync() {
				t.Fatal("an update published a generation while none is live")
			}
			check("after updates with no live generation")

			// The next create rebuilds a generation that agrees with the
			// traditional directory.
			growBy(1)
			if !tbl.WaitSync(5 * time.Second) {
				t.Fatal("no recovery after the next create")
			}
			for k, v := range model {
				if got, ok := lookupShortcut(tbl, k); !ok || got != v {
					t.Fatalf("lookupShortcut(%d) = %d,%v, want %d", k, got, ok, v)
				}
			}
			check("after recovery")
		})
	}
}

// mapsLines counts the process's mappings, one line of /proc/self/maps
// each.
func mapsLines() (int, error) {
	data, err := os.ReadFile("/proc/self/maps")
	return bytes.Count(data, []byte("\n")), err
}

// TestFailedCreateReleasesItsRange fails a create halfway through its
// build. The range was never published, so the table must unmap it rather
// than keep it mapped until Close: at the mapping ceiling the leftover
// holds the process at its limit. The mapping count returns to its level
// from just before the create reserved the range, no mapping covers the
// range, every key still answers, and the next doubling's create succeeds.
func TestFailedCreateReleasesItsRange(t *testing.T) {
	if _, err := mapsLines(); err != nil {
		t.Skipf("no /proc/self/maps: %v", err)
	}
	// Pre-sized pool and an hour-long poll, as in the tests above: every
	// mmap is the mapper's, replayed only when WaitSync kicks.
	p, err := pool.New(pool.Config{InitialPages: 1 << 12, MaxPages: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	tbl, err := New(p, Config{PollInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	model := map[uint64]uint64{}
	next := uint64(1)
	growBy := func(n uint) {
		from := next
		next = grow(t, tbl, next, n)
		for k := from; k < next; k++ {
			model[k] = k
		}
	}
	growBy(7)
	if !tbl.WaitSync(5 * time.Second) {
		t.Fatal("never synced")
	}

	// Queue one doubling. Its create overlays the live generation (the
	// first mmap), reserves a range, and maps it slot by slot; the hook
	// counts the mappings at the reservation and fails the build halfway.
	growBy(1)
	slots := 1 << tbl.EH().GlobalDepth()
	var (
		mu      sync.Mutex
		before  = -1
		failed  area
		mmaps   int
		hookErr error
	)
	sys.SetFaultHook(func(op sys.Op) error {
		mu.Lock()
		defer mu.Unlock()
		switch op {
		case sys.OpReserve:
			before, hookErr = mapsLines()
		case sys.OpMapShared:
			mmaps++
			if mmaps == 1+slots/2 {
				// The hook runs on the mapper, inside the create that
				// has just reserved this range.
				failed = tbl.areas[len(tbl.areas)-1]
				return errors.New("injected fault")
			}
		}
		return nil
	})
	synced := tbl.WaitSync(50 * time.Millisecond)
	sys.SetFaultHook(nil)
	if synced || tbl.Stats().MapperFailures != 1 {
		t.Fatalf("synced=%v, MapperFailures=%d: the create did not fail", synced, tbl.Stats().MapperFailures)
	}
	after, err := mapsLines()
	mu.Lock()
	defer mu.Unlock()
	if err != nil || hookErr != nil || before < 0 || failed.slots != slots {
		t.Fatalf("no reading at the reservation: before=%d failed=%+v (%v, %v)", before, failed, err, hookErr)
	}
	if after != before {
		t.Fatalf("%d mappings after the failed create, %d before it reserved its range", after, before)
	}
	lo, hi := failed.base, failed.base+uintptr(failed.slots)<<pageShift
	for _, m := range readSmaps(t) {
		if m.lo < hi && lo < m.hi {
			t.Fatalf("the failed range %#x-%#x is still mapped: %#x-%#x", lo, hi, m.lo, m.hi)
		}
	}
	for k, v := range model {
		if got, ok := tbl.Lookup(k); !ok || got != v {
			t.Fatalf("after the failed create: Lookup(%d) = %d,%v, want %d", k, got, ok, v)
		}
	}

	growBy(1)
	if !tbl.WaitSync(5 * time.Second) {
		t.Fatal("the next doubling's create did not succeed")
	}
	for k, v := range model {
		if got, ok := lookupShortcut(tbl, k); !ok || got != v {
			t.Fatalf("lookupShortcut(%d) = %d,%v, want %d", k, got, ok, v)
		}
	}
}

// TestFailedUpdateRetiresGeneration fails the kth mmap of an update replay.
// The slot that failed still maps its bucket from before the split, so the
// table must retire the live generation instead of publishing a later
// update over the hole: it answers every key through the traditional
// directory and stays out of sync until the next doubling's create.
func TestFailedUpdateRetiresGeneration(t *testing.T) {
	for _, nth := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("mmap_%d", nth), func(t *testing.T) {
			// Pre-sized pool and an hour-long poll, as in the create test:
			// every mmap is the mapper's, replayed only when WaitSync kicks.
			p, err := pool.New(pool.Config{InitialPages: 1 << 12, MaxPages: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			tbl, err := New(p, Config{PollInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { tbl.Close() })
			model := map[uint64]uint64{}
			next := uint64(1)
			insert := func(k uint64) {
				if err := tbl.Insert(k, k); err != nil {
					t.Fatal(err)
				}
				model[k] = k
			}
			// splitBy queues n updates and no create.
			splitBy := func(n int) {
				gd, splits := tbl.EH().GlobalDepth(), tbl.EH().Splits
				for ; tbl.EH().Splits < splits+n; next++ {
					insert(next)
				}
				if tbl.EH().GlobalDepth() != gd {
					t.Fatal("the splits doubled the directory")
				}
			}
			check := func(when string) {
				t.Helper()
				for k, v := range model {
					if got, ok := tbl.Lookup(k); !ok || got != v {
						t.Fatalf("%s: Lookup(%d) = %d,%v, want %d", when, k, got, ok, v)
					}
				}
			}
			for gd := tbl.EH().GlobalDepth() + 7; tbl.EH().GlobalDepth() < gd; next++ {
				insert(next)
			}
			if !tbl.WaitSync(5 * time.Second) {
				t.Fatal("never synced")
			}

			splitBy(8)
			sys.SetFaultHook(failingHook(sys.OpMapShared, nth))
			synced := tbl.WaitSync(50 * time.Millisecond)
			sys.SetFaultHook(nil)
			if synced || tbl.InSync() || tbl.UsingShortcut() {
				t.Fatal("in sync after a failed update")
			}
			if got := tbl.Stats().MapperFailures; got != 1 {
				t.Fatalf("MapperFailures = %d, want 1", got)
			}
			check("after the failed update")

			splitBy(4)
			if tbl.WaitSync(20*time.Millisecond) || tbl.InSync() {
				t.Fatal("an update published over the failed one")
			}
			check("after later updates")

			for gd := tbl.EH().GlobalDepth() + 1; tbl.EH().GlobalDepth() < gd; next++ {
				insert(next)
			}
			if !tbl.WaitSync(5 * time.Second) {
				t.Fatal("no recovery after the next create")
			}
			for k, v := range model {
				if got, ok := lookupShortcut(tbl, k); !ok || got != v {
					t.Fatalf("lookupShortcut(%d) = %d,%v, want %d", k, got, ok, v)
				}
			}
			check("after recovery")
		})
	}
}
