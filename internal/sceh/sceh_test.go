package sceh

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"vmshortcut/internal/eh"
	"vmshortcut/internal/pool"
)

func newPool(t testing.TB) *pool.Pool {
	t.Helper()
	p, err := pool.New(pool.Config{GrowChunkPages: 32, MaxPages: 1 << 18})
	if err != nil {
		t.Fatalf("pool.New: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func newTable(t testing.TB, cfg Config) *Table {
	t.Helper()
	if cfg.PollInterval == 0 {
		cfg.PollInterval = time.Millisecond
	}
	tbl, err := New(newPool(t), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { tbl.Close() })
	return tbl
}

func TestFreshTableInSync(t *testing.T) {
	tbl := newTable(t, Config{})
	if !tbl.InSync() {
		t.Fatal("fresh table should be in sync")
	}
	if !tbl.UsingShortcut() {
		t.Fatal("fresh table should route through the shortcut")
	}
	if _, ok := tbl.Lookup(1); ok {
		t.Fatal("phantom key")
	}
	s := tbl.Stats()
	if s.ShortcutLookups != 1 || s.TraditionalLookups != 0 {
		t.Fatalf("lookup routing stats: %+v", s)
	}
}

func TestInsertLookupThroughShortcut(t *testing.T) {
	tbl := newTable(t, Config{})
	const n = 30000
	for k := uint64(0); k < n; k++ {
		if err := tbl.Insert(k, k^0xFF); err != nil {
			t.Fatalf("Insert(%d): %v", k, err)
		}
	}
	if !tbl.WaitSync(5 * time.Second) {
		t.Fatalf("shortcut never synced: trad=%d sc=%d",
			tbl.TradVersion(), tbl.ShortcutVersion())
	}
	if !tbl.UsingShortcut() {
		t.Fatalf("should use shortcut: fan-in=%f", tbl.EH().AvgFanIn())
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tbl.Lookup(k)
		if !ok || v != k^0xFF {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	s := tbl.Stats()
	if s.ShortcutLookups == 0 {
		t.Fatal("no lookups went through the shortcut")
	}
	if s.CreatesApplied == 0 {
		t.Fatal("directory doublings should have triggered creates")
	}
}

func TestShortcutAndTraditionalAgree(t *testing.T) {
	tbl := newTable(t, Config{})
	const n = 20000
	for k := uint64(0); k < n; k++ {
		tbl.Insert(k*2654435761+1, k)
	}
	if !tbl.WaitSync(5 * time.Second) {
		t.Fatal("never synced")
	}
	for k := uint64(0); k < n; k++ {
		key := k*2654435761 + 1
		sv, sok := lookupShortcut(tbl, key)
		tv, tok := tbl.EH().Lookup(key)
		if sok != tok || sv != tv {
			t.Fatalf("key %d: shortcut (%d,%v) != traditional (%d,%v)", key, sv, sok, tv, tok)
		}
	}
}

func TestOutOfSyncFallsBackToTraditional(t *testing.T) {
	// A long poll interval keeps the shortcut stale after inserts, so
	// lookups must route through the traditional directory and still be
	// correct.
	tbl := newTable(t, Config{PollInterval: time.Hour})
	const n = 20000
	for k := uint64(0); k < n; k++ {
		tbl.Insert(k, k+7)
	}
	if tbl.InSync() {
		t.Skip("no directory modification happened (impossible at this n)")
	}
	if tbl.UsingShortcut() {
		t.Fatal("stale shortcut must not be used")
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tbl.Lookup(k)
		if !ok || v != k+7 {
			t.Fatalf("fallback Lookup(%d) = %d,%v", k, v, ok)
		}
	}
	s := tbl.Stats()
	if s.ShortcutLookups != 0 {
		t.Fatalf("%d lookups used a stale shortcut", s.ShortcutLookups)
	}
}

func TestVersionsAdvanceMonotonically(t *testing.T) {
	tbl := newTable(t, Config{})
	lastSc := uint64(0)
	for k := uint64(0); k < 30000; k++ {
		tbl.Insert(k, k)
		if sv := tbl.ShortcutVersion(); sv < lastSc {
			t.Fatalf("shortcut version went backwards: %d -> %d", lastSc, sv)
		} else {
			lastSc = sv
		}
		if tbl.ShortcutVersion() > tbl.TradVersion() {
			t.Fatal("shortcut version ahead of traditional")
		}
	}
	if !tbl.WaitSync(5 * time.Second) {
		t.Fatal("never synced")
	}
	if tbl.ShortcutVersion() != tbl.TradVersion() {
		t.Fatal("versions differ after sync")
	}
}

func TestSynchronousMode(t *testing.T) {
	tbl := newTable(t, Config{Synchronous: true})
	const n = 20000
	for k := uint64(0); k < n; k++ {
		tbl.Insert(k, k*2)
	}
	// Synchronous maintenance keeps the shortcut permanently in sync.
	if !tbl.InSync() {
		t.Fatalf("synchronous table out of sync: trad=%d sc=%d",
			tbl.TradVersion(), tbl.ShortcutVersion())
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tbl.Lookup(k)
		if !ok || v != k*2 {
			t.Fatalf("Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestFanInThresholdRouting(t *testing.T) {
	// Pre-size the directory so global depth is large while only one
	// bucket exists: fan-in = dirSize, far above the threshold.
	tbl := newTable(t, Config{EH: ehInitial(6)})
	if !tbl.WaitSync(5 * time.Second) {
		t.Fatal("never synced")
	}
	if f := tbl.EH().AvgFanIn(); f != 64 {
		t.Fatalf("fan-in = %f, want 64", f)
	}
	if tbl.UsingShortcut() {
		t.Fatal("fan-in 64 must route traditionally")
	}
	tbl.Insert(1, 2)
	if v, ok := tbl.Lookup(1); !ok || v != 2 {
		t.Fatal("lookup misrouted")
	}
	if s := tbl.Stats(); s.ShortcutLookups != 0 {
		t.Fatal("shortcut used despite fan-in")
	}

	// Splits alone, with no doubling, bring the fan-in under the
	// threshold. Only update requests carry that change, so the state
	// they publish must turn routing on.
	for k := uint64(2); k <= 2000; k++ {
		tbl.Insert(k, k*2)
	}
	if gd := tbl.EH().GlobalDepth(); gd != 6 {
		t.Fatalf("global depth = %d, want 6 (no doubling)", gd)
	}
	if f := tbl.EH().AvgFanIn(); f > fanInThreshold {
		t.Fatalf("fan-in = %f, want <= %d", f, fanInThreshold)
	}
	if !tbl.WaitSync(5 * time.Second) {
		t.Fatal("never synced after splits")
	}
	if !tbl.UsingShortcut() {
		t.Fatalf("fan-in %f must route through the shortcut", tbl.EH().AvgFanIn())
	}
	before := tbl.Stats().ShortcutLookups
	if v, ok := tbl.Lookup(1000); !ok || v != 2000 {
		t.Fatalf("Lookup(1000) = %d,%v", v, ok)
	}
	if got := tbl.Stats().ShortcutLookups; got != before+1 {
		t.Fatalf("shortcut lookups %d -> %d, want one more", before, got)
	}
}

func TestDelete(t *testing.T) {
	tbl := newTable(t, Config{})
	for k := uint64(0); k < 10000; k++ {
		tbl.Insert(k, k)
	}
	tbl.WaitSync(5 * time.Second)
	for k := uint64(0); k < 10000; k += 2 {
		if !tbl.Delete(k) {
			t.Fatalf("Delete(%d) failed", k)
		}
	}
	// Deletes do not touch the directory: still in sync, and the shortcut
	// must observe the removals (shared physical pages).
	if !tbl.InSync() {
		t.Fatal("delete desynced the directory")
	}
	for k := uint64(0); k < 10000; k++ {
		_, ok := lookupShortcut(tbl, k)
		if k%2 == 0 && ok {
			t.Fatalf("deleted key %d visible through shortcut", k)
		}
		if k%2 == 1 && !ok {
			t.Fatalf("key %d lost", k)
		}
	}
	if tbl.Len() != 5000 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestConcurrentLookupsDuringMapperReplay(t *testing.T) {
	// The paper's concurrency model: one writer goroutine (which also
	// issues its own lookups) plus the mapper thread. Here readers race
	// against the *mapper* while it replays a burst of directory
	// modifications — exercising the version check, the atomic
	// publication of new shortcut generations, and the retirement of old
	// ones. Run with -race.
	tbl := newTable(t, Config{PollInterval: 2 * time.Millisecond})
	const n = 60000
	// Writer phase: no lookups, so the mapper prunes the backlog and
	// parks instead of replaying it.
	for k := uint64(0); k < n; k++ {
		if err := tbl.Insert(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Reader phase: the writer is quiet, and the readers' first fallbacks
	// wake the mapper, which replays while they keep looking up.
	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50000; i++ {
				k := uint64(rng.Intn(n))
				v, ok := tbl.Lookup(k)
				if !ok || v != k {
					errs <- errValue(k, v)
					return
				}
			}
			errs <- nil
		}(int64(r))
	}
	for r := 0; r < 4; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if !tbl.WaitSync(5 * time.Second) {
		t.Fatal("never synced after concurrent phase")
	}
	for k := uint64(0); k < n; k++ {
		if v, ok := tbl.Lookup(k); !ok || v != k {
			t.Fatalf("post-phase Lookup(%d) = %d,%v", k, v, ok)
		}
	}
}

type valueErr struct{ k, v uint64 }

func (e valueErr) Error() string { return "wrong value" }

func errValue(k, v uint64) error { return valueErr{k, v} }

func TestSupersededUpdates(t *testing.T) {
	// Three doublings and their splits queue up before the mapper drains
	// them at once: only the last create is built, every request before it
	// is superseded, and the shortcut still converges.
	tbl := newTable(t, Config{PollInterval: time.Hour})
	next := grow(t, tbl, 1, 3)
	queued := tbl.TradVersion() - tbl.ShortcutVersion()
	if !tbl.WaitSync(5 * time.Second) {
		t.Fatal("never synced")
	}
	s := tbl.Stats()
	if s.CreatesApplied != 2 {
		t.Fatalf("creates applied = %d, want 2 (the initial one and the last)", s.CreatesApplied)
	}
	if s.UpdatesSuperseded < 2 || s.UpdatesSuperseded+s.UpdatesApplied+1 != queued {
		t.Fatalf("superseded %d + applied %d + 1 create != %d queued", s.UpdatesSuperseded, s.UpdatesApplied, queued)
	}
	for k := uint64(1); k < next; k++ {
		if v, ok := lookupShortcut(tbl, k); !ok || v != k {
			t.Fatalf("lookupShortcut(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestCloseIsIdempotentAndStopsMapper(t *testing.T) {
	p := newPool(t)
	tbl, err := New(p, Config{PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 1000; k++ {
		tbl.Insert(k, k)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := tbl.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestQuickModelEquivalence: random op streams against a map model, with
// sync waits sprinkled in so both access paths get exercised.
func TestQuickModelEquivalence(t *testing.T) {
	tbl := newTable(t, Config{PollInterval: time.Millisecond})
	model := map[uint64]uint64{}
	ops := 0

	check := func(kRaw uint16, v uint64, opRaw uint8) bool {
		k := uint64(kRaw % 4096)
		ops++
		if ops%500 == 0 {
			tbl.WaitSync(2 * time.Second)
		}
		switch opRaw % 4 {
		case 0, 1:
			if err := tbl.Insert(k, v); err != nil {
				return false
			}
			model[k] = v
		case 2:
			got, ok := tbl.Lookup(k)
			want, mok := model[k]
			if ok != mok || (ok && got != want) {
				return false
			}
		case 3:
			_, mok := model[k]
			if tbl.Delete(k) != mok {
				return false
			}
			delete(model, k)
		}
		return tbl.Len() == len(model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}

// lookupShortcut forces the shortcut path; the table must be in sync.
func lookupShortcut(tbl *Table, key uint64) (uint64, bool) {
	return tbl.published.Load().lookup(key)
}

// ehInitial builds an eh.Config with the given initial global depth.
func ehInitial(gd uint) (c eh.Config) {
	c.InitialGlobalDepth = gd
	return
}
