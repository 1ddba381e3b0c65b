package experiments

import (
	"strings"
	"testing"
	"time"

	"vmshortcut/internal/harness"
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

func TestAblationHugePagesSim(t *testing.T) {
	tbl, err := AblationHugePagesSim(10000, []int{1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tbl.Render(&sb)
	if !strings.Contains(sb.String(), "shortcut 2M") {
		t.Fatal("missing 2M column")
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
