package experiments

import (
	"math"
	"strings"
	"testing"

	"vmshortcut/internal/vmsim"
)

// The gates in this file pin the paper's simulated claims exactly. vmsim
// is deterministic and every access stream is seeded, so each assertion
// has one answer for its config. A change to the model or to a runner
// that moves a claim fails here.
//
// Each gate runs a table a few hundred to a few thousand times smaller
// than the paper's, on a machine whose caches and TLB shrink with it. A
// shape claim rests on inequalities between working sets and hardware:
// whether the shortcut's page-table entries, the pointer directory or
// the pages a stream touches outgrow a cache level or the TLB. Shrinking
// both sides together keeps those inequalities, and a gate finishes in
// well under half a second instead of simulating the paper's 2^22 slots
// against a 25 MB L3. The doc of each gate names the inequality it keeps.

// smallMachine is the i7-12700KF model shrunk for tables of 2^10–2^14
// pages: 4 KB L1, 16 KB L2 and 32 KB L3, all 4-way, and a 16/192-entry
// TLB.
var smallMachine = vmsim.Config{
	L1Size: 4 << 10, L1Ways: 4,
	L2Size: 16 << 10, L2Ways: 4,
	L3Size: 32 << 10, L3Ways: 4,
	TLB1Entries: 16, TLB2Entries: 192,
}

// TestFig2SimShapeShortcutWins pins Figure 2: the shortcut beats the
// traditional node at every directory size. At scale 1/1024 the paper's
// 1–64 MB directories become 1–64 KB. smallMachine's 32 KB L3 sits inside
// that range, as the paper's 25 MB L3 sits inside 1–64 MB, so the sweep
// crosses the L3 boundary as the paper's does. Fan-in is 1 everywhere.
func TestFig2SimShapeShortcutWins(t *testing.T) {
	series, err := Fig2Sim(Fig2Config{Accesses: 20000, Scale: 1.0 / 1024, Sim: smallMachine})
	if err != nil {
		t.Fatal(err)
	}
	trad, short := series[0], series[1]
	if len(trad.Points) != len(fig2Points) {
		t.Fatalf("%d points, want %d", len(trad.Points), len(fig2Points))
	}
	for i := range trad.Points {
		if short.Points[i].Y >= trad.Points[i].Y {
			t.Errorf("dir,buckets %s MB: shortcut %.3f ms, traditional %.3f ms; the shortcut must win",
				trad.Points[i].X, short.Points[i].Y, trad.Points[i].Y)
		}
	}
}

// fig4Machine runs Figure 4's sweep over 2^14 slots. The shortcut's
// 128 KB of page-table entries overflow its 64 KB L3, as the paper's
// 32 MB overflow a 25 MB L3. Its 768-entry TLB covers the traditional
// node's 32 pointer-array pages and, down to fan-in 32, all of its leaf
// pages, but not the shortcut's 16 384 pages. Caches keep the model's
// default associativity: with 4-way caches nested paging moves this
// sweep's crossover up, not down.
var fig4Machine = vmsim.Config{
	L1Size: 4 << 10, L2Size: 8 << 10, L3Size: 64 << 10,
	TLB1Entries: 64, TLB2Entries: 768,
}

// fig4Crossover sweeps fanIns (descending) and returns the largest fan-in
// at which the shortcut is faster. It fails the test unless the sweep
// splits cleanly: the traditional node wins above that fan-in and the
// shortcut wins at and below it.
func fig4Crossover(t *testing.T, sim vmsim.Config, fanIns []int) int {
	t.Helper()
	series, err := Fig4Sim(Fig4Config{Slots: 1 << 14, Accesses: 10000, FanIns: fanIns, Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	trad, short := series[0], series[1]
	crossover := 0
	for i, fanIn := range fanIns {
		shortcutWins := short.Points[i].Y < trad.Points[i].Y
		if shortcutWins && crossover == 0 {
			crossover = fanIn
		}
		if !shortcutWins && crossover != 0 {
			t.Fatalf("fan-in %d: traditional %.3f ms beats shortcut %.3f ms below the crossover %d",
				fanIn, trad.Points[i].Y, short.Points[i].Y, crossover)
		}
	}
	return crossover
}

// TestFig4SimCrossover pins Figure 4: the traditional node wins at fan-in
// 512, the shortcut at fan-in 1, and they cross at exactly fan-in 4 on
// fig4Machine. The paper measures 8–16 on real hardware.
func TestFig4SimCrossover(t *testing.T) {
	fanIns := []int{512, 256, 128, 64, 32, 16, 8, 4, 2, 1}
	if got := fig4Crossover(t, fig4Machine, fanIns); got != 4 {
		t.Fatalf("crossover at fan-in %d, want 4", got)
	}
}

// TestFig4SimNestedPagingShiftsCrossover pins Figure 4 under nested
// paging (EPT): every guest page-table read is translated through the
// host table, so the shortcut, which walks on nearly every access, pays
// more than the traditional node, whose pointer array stays in the TLB;
// the crossover drops from fan-in 4 to 2. Fan-ins above 8 are left out:
// TestFig4SimCrossover shows the traditional node winning there natively.
func TestFig4SimNestedPagingShiftsCrossover(t *testing.T) {
	fanIns := []int{8, 4, 2, 1}
	nested := fig4Machine
	nested.NestedPaging = true
	native, shifted := fig4Crossover(t, fig4Machine, fanIns), fig4Crossover(t, nested, fanIns)
	if native != 4 || shifted != 2 {
		t.Fatalf("crossover native %d, nested %d; want 4 and 2", native, shifted)
	}
}

// TestTable1SimShape pins Table 1 over 2^12 slots on smallMachine, whose
// TLB covers 1/21 of them as the paper's covers a sliver of 2^22.
// Creation: an mmap per slot costs far more than a pointer store, and
// only eager population pays to populate. Access: lazy population pays
// a soft fault on each first touch, eager does not; both second passes
// cost the same, and less than the traditional node's extra indirection.
func TestTable1SimShape(t *testing.T) {
	rows, err := Table1Sim(Table1Config{Slots: 1 << 12, Accesses: 20000, Sim: smallMachine})
	if err != nil {
		t.Fatal(err)
	}
	trad, lazy, eager := rows[0], rows[1], rows[2]
	if lazy.SetPerPage != eager.SetPerPage || trad.SetPerPage*100 > lazy.SetPerPage {
		t.Errorf("set per page: pointer %.4f µs, mmap lazy %.4f / eager %.4f µs; want equal mmaps ≥ 100× the pointer",
			trad.SetPerPage, lazy.SetPerPage, eager.SetPerPage)
	}
	if lazy.PopPerPage != 0 || eager.PopPerPage <= 0 {
		t.Errorf("populate per page: lazy %.4f, eager %.4f µs; only eager populates", lazy.PopPerPage, eager.PopPerPage)
	}
	if lazy.Access1 < 2*eager.Access1 {
		t.Errorf("1st access: lazy %.1f ns, eager %.1f ns; lazy must pay its faults", lazy.Access1, eager.Access1)
	}
	if math.Abs(lazy.Access2-eager.Access2) > 0.01*eager.Access2 {
		t.Errorf("2nd access: lazy %.1f ns, eager %.1f ns; want within 1%%", lazy.Access2, eager.Access2)
	}
	if eager.Access2 >= trad.Access2 {
		t.Errorf("2nd access: shortcut %.1f ns, traditional %.1f ns; the shortcut must win", eager.Access2, trad.Access2)
	}
}

// TestFig5SimShape pins Figure 5 on smallMachine over 2^12 pages, which
// overflow its 192-entry TLB as the paper's 8 GB region overflows 3072
// entries. The shooter pays one IPI per active reader core on every
// remap, so its cost per remap grows by exactly LatIPI per reader; a
// reader's cost per page, with the shooter running, stays within 1.5× of
// its quiet pass.
func TestFig5SimShape(t *testing.T) {
	results, err := Fig5Sim(Fig5Config{RegionPages: 1 << 12, Remaps: 1 << 10, ReaderCounts: []int{0, 1, 3, 7}, Sim: smallMachine})
	if err != nil {
		t.Fatal(err)
	}
	base, ipiUS := results[0].RemapUS, vmsim.New(smallMachine).Config().LatIPI/1000
	for _, r := range results {
		if want := base + ipiUS*float64(r.Readers); math.Abs(r.RemapUS-want) > 1e-9 {
			t.Errorf("%d readers: %.4f µs per remap, want %.4f", r.Readers, r.RemapUS, want)
		}
		if r.Readers > 0 && r.ReadWithShootUS > 1.5*r.ReadQuietUS {
			t.Errorf("%d readers: %.4f µs per page under shootdowns, %.4f quiet; want within 1.5×",
				r.Readers, r.ReadWithShootUS, r.ReadQuietUS)
		}
	}
}

// TestFig7bSimShape pins Figure 7b's lookup order, HT < Shortcut-EH < EH,
// at 50 000 entries (global depth 10: an 8 KB directory over 923 bucket
// pages). Its machine's 8 KB L3 no longer holds the directory beside the
// buckets, as the paper's 25 MB L3 cannot hold a 32 MB directory at 100M
// entries; the bucket pages overflow the 192-entry TLB as the paper's
// overflow 3072 entries. In that regime EH pays the directory access the
// shortcut removes. With caches that hold the directory the indirection
// is nearly free, and the order is not the paper's.
func TestFig7bSimShape(t *testing.T) {
	sim := smallMachine
	sim.L1Size, sim.L2Size, sim.L3Size = 2<<10, 4<<10, 8<<10
	ns, tbl, err := Fig7bSim(Fig7Config{Entries: 50_000, Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	for _, want := range []string{"HT (sim)", "EH (sim)", "Shortcut-EH (sim)", "gd=10"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("missing %q:\n%s", want, sb.String())
		}
	}
	if !(ns["HT"] < ns["Shortcut-EH"] && ns["Shortcut-EH"] < ns["EH"]) {
		t.Fatalf("per lookup: HT %.1f, Shortcut-EH %.1f, EH %.1f ns; want HT < Shortcut-EH < EH",
			ns["HT"], ns["Shortcut-EH"], ns["EH"])
	}
}

// TestAblationHugePagesSimShape pins the paper's huge-page outlook: a
// fan-in-1 shortcut over 2^14 pages mapped with 2 MB pages is at least
// twice as fast as with 4 KB pages. The 16 384 small pages overflow
// smallMachine's 192-entry TLB; the 32 huge pages fit the model's
// 32-entry huge-page TLB, and each walk is one level shorter.
func TestAblationHugePagesSimShape(t *testing.T) {
	const slots = 1 << 14
	const accesses = 20000
	m4 := vmsim.New(smallMachine)
	simSetup(m4, slots, slots)
	m4.ResetTime()
	for i := 0; i < accesses; i++ {
		simShortcutAccess(m4, (i*2654435761)%slots)
	}
	small := m4.Time()

	mh := vmsim.New(smallMachine)
	for h := 0; h < slots/512; h++ {
		mh.MapHuge(simShortBase>>21+uint64(h), uint64(h))
	}
	mh.ResetTime()
	for i := 0; i < accesses; i++ {
		simShortcutAccess(mh, (i*2654435761)%slots)
	}
	huge := mh.Time()
	if huge*2 > small {
		t.Fatalf("2 MB shortcut %.0f ns, 4 KB shortcut %.0f ns; want at least 2× faster", huge, small)
	}
}
