package experiments

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"vmshortcut/internal/harness"
	"vmshortcut/internal/vmsim"
)

func TestFig2TinyRuns(t *testing.T) {
	series, err := Fig2(Fig2Config{Accesses: 20000, Scale: 1.0 / 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if len(s.Points) != len(fig2Points) {
			t.Fatalf("%s has %d points, want %d", s.Label, len(s.Points), len(fig2Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("%s point %s non-positive", s.Label, p.X)
			}
		}
	}
}

func TestTable1TinyRuns(t *testing.T) {
	rows, err := Table1(Table1Config{Slots: 1 << 10, Accesses: 50000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	trad, lazy, eager := rows[0], rows[1], rows[2]
	// Setting pointers must be far cheaper than setting mmaps.
	if trad.SetPerPage >= lazy.SetPerPage {
		t.Fatalf("pointer set %.3f >= mmap set %.3f", trad.SetPerPage, lazy.SetPerPage)
	}
	if eager.PopPerPage <= 0 {
		t.Fatal("eager variant must report populate cost")
	}
	if lazy.PopPerPage != 0 {
		t.Fatal("lazy variant must not populate")
	}
	// Render sanity.
	var sb strings.Builder
	Table1Render(rows).Render(&sb)
	if !strings.Contains(sb.String(), "Shortcut (eager)") {
		t.Fatal("render missing variant")
	}
}

func TestFig4TinyRuns(t *testing.T) {
	series, err := Fig4(Fig4Config{Slots: 1 << 12, Accesses: 20000, FanIns: []int{16, 4, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range series {
		if len(s.Points) != 3 {
			t.Fatalf("%s has %d points", s.Label, len(s.Points))
		}
	}
}

func TestFig5TinyRuns(t *testing.T) {
	results, err := Fig5(Fig5Config{RegionPages: 1 << 10, Remaps: 1 << 8, ReaderCounts: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].RemapUS <= 0 {
		t.Fatal("no remap cost measured")
	}
	// Reader costs are only meaningful if the readers actually got CPU
	// time during the shooting phase (not guaranteed on one core).
	if results[1].PagesReadPerRead > 0 {
		if results[1].ReadWithShootUS <= 0 || results[1].ReadQuietUS <= 0 {
			t.Fatal("reader costs missing despite pages read")
		}
	}
	var sb strings.Builder
	Fig5Render(results).Render(&sb)
	if !strings.Contains(sb.String(), "shooter") {
		t.Fatal("render broken")
	}
}

func TestFig7TinyRuns(t *testing.T) {
	res, err := Fig7(Fig7Config{Entries: 30000, Checkpoints: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Insert) != len(IndexNames) {
		t.Fatalf("insert series = %d", len(res.Insert))
	}
	for _, s := range res.Insert {
		if len(s.Points) != 5 {
			t.Fatalf("%s: %d checkpoints", s.Label, len(s.Points))
		}
		last := 0.0
		for _, p := range s.Points {
			if p.Y < last {
				t.Fatalf("%s accumulated time decreased", s.Label)
			}
			last = p.Y
		}
	}
	for _, name := range IndexNames {
		if res.LookupMS[name] <= 0 {
			t.Fatalf("%s lookup time missing", name)
		}
	}
}

func TestFig7bSimShape(t *testing.T) {
	// Paper scale (100M entries): the EH directory itself (2^22 slots ×
	// 8 B = 32 MB) no longer fits the caches, which is exactly the
	// indirection cost the shortcut eliminates. The shape is synthesized
	// from the calibrated growth law; only 1M lookups are simulated.
	ns, tbl, err := Fig7bSim(Fig7Config{Entries: 100_000_000})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	for _, want := range []string{"HT (sim)", "EH (sim)", "Shortcut-EH (sim)"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("missing %q:\n%s", want, sb.String())
		}
	}
	// Paper ordering on native-like hardware: HT fastest, Shortcut-EH
	// close behind, EH last.
	if !(ns["HT"] <= ns["Shortcut-EH"] && ns["Shortcut-EH"] < ns["EH"]) {
		t.Fatalf("sim ordering wrong: HT %.1f, Shortcut-EH %.1f, EH %.1f",
			ns["HT"], ns["Shortcut-EH"], ns["EH"])
	}
	// At cache-resident scales the ordering legitimately differs (see
	// EXPERIMENTS.md); just verify it runs.
	if _, _, err := Fig7bSim(Fig7Config{Entries: 200000}); err != nil {
		t.Fatal(err)
	}
}

func TestFig8TinyRuns(t *testing.T) {
	points, err := Fig8(Fig8Config{
		BulkLoad:     20000,
		Waves:        2,
		WaveAccesses: 2000,
		Batch:        500,
		PollInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 4 {
		t.Fatalf("only %d points", len(points))
	}
	// Versions never regress and end in sync (mapper catches up).
	var lastTrad, lastSc uint64
	for _, p := range points {
		if p.TradVer < lastTrad || p.ShortcutVer < lastSc {
			t.Fatal("versions regressed")
		}
		if p.ShortcutVer > p.TradVer {
			t.Fatal("shortcut version ahead")
		}
		lastTrad, lastSc = p.TradVer, p.ShortcutVer
	}
}

func TestFig2SimShapeShortcutWins(t *testing.T) {
	series, err := Fig2Sim(Fig2Config{Accesses: 50000, Scale: 1.0 / 1024})
	if err != nil {
		t.Fatal(err)
	}
	trad, short := series[0], series[1]
	// Figure 2's headline: the shortcut is faster at every size (fan-in
	// here is ~1, far below the crossover).
	wins := 0
	for i := range trad.Points {
		if short.Points[i].Y < trad.Points[i].Y {
			wins++
		}
	}
	if wins < len(trad.Points)-1 {
		t.Fatalf("shortcut won only %d/%d sim configurations", wins, len(trad.Points))
	}
}

func TestFig4SimCrossover(t *testing.T) {
	// The paper runs 2^22 slots on a 25 MB L3: the shortcut's PTE
	// footprint (32 MB) spills out of cache while the traditional node's
	// stays resident. At test scale (2^18 slots → 2 MB of PTEs) the same
	// asymmetry needs a proportionally smaller simulated cache.
	series, err := Fig4Sim(Fig4Config{
		Slots:    1 << 18,
		Accesses: 200000,
		FanIns:   []int{512, 64, 8, 1},
		Sim: vmsim.Config{
			L2Size: 128 << 10,
			L3Size: 1 << 20,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	trad, short := series[0], series[1]
	// Paper shape: traditional wins at fan-in 512; shortcut wins at 1.
	if trad.Points[0].Y >= short.Points[0].Y {
		t.Fatalf("fan-in 512: traditional %.2f should beat shortcut %.2f",
			trad.Points[0].Y, short.Points[0].Y)
	}
	last := len(trad.Points) - 1
	if short.Points[last].Y >= trad.Points[last].Y {
		t.Fatalf("fan-in 1: shortcut %.2f should beat traditional %.2f",
			short.Points[last].Y, trad.Points[last].Y)
	}
}

func TestTable1SimShape(t *testing.T) {
	rows, err := Table1Sim(Table1Config{Slots: 1 << 14, Accesses: 100000})
	if err != nil {
		t.Fatal(err)
	}
	trad, lazy, eager := rows[0], rows[1], rows[2]
	if trad.SetPerPage >= lazy.SetPerPage {
		t.Fatal("sim: pointer set should be cheaper than remap")
	}
	// Lazy first access pays faults; eager does not.
	if lazy.Access1 <= eager.Access1 {
		t.Fatalf("sim: lazy 1st access %.1f should exceed eager %.1f",
			lazy.Access1, eager.Access1)
	}
	// Second passes converge.
	ratio := lazy.Access2 / eager.Access2
	if ratio > 1.5 || ratio < 0.67 {
		t.Fatalf("sim: 2nd accesses diverge: lazy %.1f vs eager %.1f",
			lazy.Access2, eager.Access2)
	}
}

func TestFig5SimShape(t *testing.T) {
	results, err := Fig5Sim(Fig5Config{RegionPages: 1 << 12, Remaps: 1 << 10, ReaderCounts: []int{0, 1, 3, 7}})
	if err != nil {
		t.Fatal(err)
	}
	// Shooter cost grows with reader count...
	for i := 1; i < len(results); i++ {
		if results[i].RemapUS <= results[i-1].RemapUS {
			t.Fatalf("remap cost did not grow: %v -> %v", results[i-1].RemapUS, results[i].RemapUS)
		}
	}
	// ...while readers stay within a small factor of quiet reads.
	for _, r := range results[1:] {
		if r.ReadWithShootUS > r.ReadQuietUS*2 {
			t.Fatalf("readers slowed too much: %.3f vs %.3f", r.ReadWithShootUS, r.ReadQuietUS)
		}
	}
}

func TestAblationCoalesce(t *testing.T) {
	tbl, err := AblationCoalesce(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "coalesced") {
		t.Fatal("missing coalesced row")
	}
}

func TestAblationThreshold(t *testing.T) {
	tbl, err := AblationThreshold(Fig4Config{Slots: 1 << 10, Accesses: 10000, FanIns: []int{8, 1}})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "faster path") {
		t.Fatal("missing verdict column")
	}
}

func TestAblationPollInterval(t *testing.T) {
	tbl, err := AblationPollInterval(20000, []time.Duration{time.Millisecond, 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "time-to-sync") {
		t.Fatal("missing sync column")
	}
}

func TestAblationSyncMaintenance(t *testing.T) {
	tbl, err := AblationSyncMaintenance(20000)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	for _, want := range []string{"async mapper", "synchronous", "raw EH"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("missing variant %q", want)
		}
	}
}

func TestFig4SimNestedPagingShiftsCrossover(t *testing.T) {
	// EXPERIMENTS.md observes that on the (virtualized) measurement host
	// the fan-in crossover sits far below the paper's 8–16. With
	// NestedPaging the simulator must show the same directional shift:
	// nested paging penalizes the walk-heavy shortcut more than the
	// TLB-friendly traditional node, moving the crossover toward lower
	// fan-ins (i.e. at a mid fan-in where they were close, the traditional
	// node's relative position improves).
	base := vmsim.Config{L2Size: 128 << 10, L3Size: 1 << 20}
	nested := base
	nested.NestedPaging = true

	ratioAt := func(cfg vmsim.Config, fanIn int) float64 {
		s, err := Fig4Sim(Fig4Config{
			Slots: 1 << 16, Accesses: 100000, FanIns: []int{fanIn}, Sim: cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s[1].Points[0].Y / s[0].Points[0].Y // shortcut / traditional
	}
	const fanIn = 32
	nativeRatio := ratioAt(base, fanIn)
	nestedRatio := ratioAt(nested, fanIn)
	if nestedRatio <= nativeRatio {
		t.Fatalf("nested paging should hurt the shortcut relatively: native %.3f, nested %.3f",
			nativeRatio, nestedRatio)
	}
}

func TestAblationHugePagesSim(t *testing.T) {
	tbl, err := AblationHugePagesSim(50000, []int{1 << 12, 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "shortcut 2M") {
		t.Fatal("missing 2M column")
	}
}

func TestAblationHugePagesSimShape(t *testing.T) {
	// At a TLB-thrashing working set, the 2 MB shortcut must beat the
	// 4 KB shortcut decisively (TLB reach × 512, walks one level shorter).
	const slots = 1 << 18
	const accesses = 100000
	m4 := vmsim.New(vmsim.Config{})
	simSetup(m4, slots, slots)
	m4.ResetTime()
	for i := 0; i < accesses; i++ {
		simShortcutAccess(m4, (i*2654435761)%slots)
	}
	small := m4.Time()

	mh := vmsim.New(vmsim.Config{})
	for h := 0; h < slots/512; h++ {
		mh.MapHuge(simShortBase>>21+uint64(h), uint64(h))
	}
	mh.ResetTime()
	for i := 0; i < accesses; i++ {
		simShortcutAccess(mh, (i*2654435761)%slots)
	}
	huge := mh.Time()
	if huge*2 >= small {
		t.Fatalf("2M shortcut should at least halve cost: %.0f vs %.0f", huge, small)
	}
}

func TestAblationHugePagesReal(t *testing.T) {
	if !HugePagesAvailable() {
		t.Skip("hugetlb pool unavailable (vm.nr_hugepages = 0)")
	}
	tbl, err := AblationHugePagesReal(16<<20, 100000, 42)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	for _, want := range []string{"4 KB pages", "2 MB pages", "speedup"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("missing row %q:\n%s", want, sb.String())
		}
	}
}

func TestRenderSeriesIntegration(t *testing.T) {
	series, err := Fig2Sim(Fig2Config{Accesses: 5000, Scale: 1.0 / 8192})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	harness.RenderSeries(&sb, "Figure 2 (sim)", "dirMB,bucketMB", series)
	if !strings.Contains(sb.String(), "Shortcut (sim)") {
		t.Fatal("series render broken")
	}
}

func TestShardScaleTinyRuns(t *testing.T) {
	rows, err := ShardScale(ShardScaleConfig{Entries: 40000, Shards: []int{1, 2}, Workers: 2, Batch: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Shards != 1 || rows[1].Shards != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.InsertMPS <= 0 || r.LookupMPS <= 0 {
			t.Fatalf("non-positive throughput: %+v", r)
		}
		if r.Procs != runtime.GOMAXPROCS(0) {
			t.Fatalf("default sweep should run at the current GOMAXPROCS: %+v", r)
		}
	}
	var sb strings.Builder
	ShardScaleRender(rows).Render(&sb)
	for _, want := range []string{"shards", "insert M/s", "lookup speedup", "1.00x"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("rendered table missing %q:\n%s", want, sb.String())
		}
	}
	if strings.Contains(sb.String(), "procs") {
		t.Fatalf("single-procs sweep should omit the procs column:\n%s", sb.String())
	}
}

// TestShardScaleProcsGrid crosses the GOMAXPROCS axis with shard counts
// and checks the sweep restores the scheduler setting it mutated.
func TestShardScaleProcsGrid(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	rows, err := ShardScale(ShardScaleConfig{
		Entries: 30000, Shards: []int{1, 2}, Procs: []int{1, 2}, Workers: 2, Batch: 256,
	})
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.GOMAXPROCS(0); after != before {
		t.Fatalf("GOMAXPROCS not restored: %d -> %d", before, after)
	}
	if len(rows) != 4 {
		t.Fatalf("procs×shards grid has %d rows, want 4: %+v", len(rows), rows)
	}
	want := [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}}
	for i, r := range rows {
		if r.Procs != want[i][0] || r.Shards != want[i][1] {
			t.Fatalf("row %d = procs %d shards %d, want %v", i, r.Procs, r.Shards, want[i])
		}
		if r.InsertMPS <= 0 || r.LookupMPS <= 0 {
			t.Fatalf("non-positive throughput: %+v", r)
		}
	}
	var sb strings.Builder
	ShardScaleRender(rows).Render(&sb)
	if !strings.Contains(sb.String(), "procs") {
		t.Fatalf("multi-procs sweep must render the procs column:\n%s", sb.String())
	}
}
