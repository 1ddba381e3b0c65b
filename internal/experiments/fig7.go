package experiments

import (
	"fmt"
	"time"

	"vmshortcut"
	"vmshortcut/internal/ch"
	"vmshortcut/internal/harness"
	"vmshortcut/internal/ht"
	"vmshortcut/internal/hti"
	"vmshortcut/internal/sceh"
	"vmshortcut/internal/vmsim"
	"vmshortcut/internal/workload"
)

// IndexNames lists the five competitors in the paper's legend order.
var IndexNames = []string{"HT", "HTI", "CH", "EH", "Shortcut-EH"}

// competitor is what the Figure 7 runner drives. Every competitor reaches
// its table through the one embedded Index interface, so none pays the
// Store facade's per-operation checks and none pays less than another.
// waitSync is nil for an index without asynchronous maintenance, release
// nil for one that holds nothing outside the Go heap.
type competitor struct {
	vmshortcut.Index
	waitSync func(time.Duration) bool
	release  func()
}

// buildIndex constructs one competitor, by its IndexNames name, sized for
// n insertions: HT, HTI and CH on the Go heap, EH and Shortcut-EH over a
// page pool sized for n. The structures themselves are deliberately NOT
// pre-sized: the insertion experiments measure growth behavior from the
// paper's 4 KB starting point.
func buildIndex(name string, n int) (competitor, error) {
	switch name {
	case "HT":
		return competitor{Index: ht.New(ht.Config{})}, nil
	case "HTI":
		return competitor{Index: hti.New(hti.Config{})}, nil
	case "CH":
		// The paper grants CH a fixed 1 GB table for 100M entries; keep
		// the same bytes-per-entry ratio at any scale.
		return competitor{Index: ch.New(ch.Config{TableBytes: max(n*10, 4096)})}, nil
	case "EH":
		t, release, err := newEH(n)
		if err != nil {
			return competitor{}, err
		}
		return competitor{Index: t, release: release}, nil
	case "Shortcut-EH":
		t, release, err := newShortcutEH(n, sceh.Config{})
		if err != nil {
			return competitor{}, err
		}
		return competitor{Index: t, waitSync: t.WaitSync, release: release}, nil
	}
	return competitor{}, fmt.Errorf("unknown index %q (want one of %v)", name, IndexNames)
}

// Fig7Config parameterizes the insertion/lookup comparison.
type Fig7Config struct {
	// Entries inserted (Fig 7a) and lookups fired (Fig 7b). Paper: 100M
	// each. Default 2M.
	Entries int
	// Checkpoints along the insertion sequence for the accumulated-time
	// series. Default 20.
	Checkpoints int
	// Indexes to run. Default all five.
	Indexes []string
	Seed    uint64
	// Sim overrides the simulated machine for Fig7bSim.
	Sim vmsim.Config
}

func (c *Fig7Config) fill() {
	if c.Entries <= 0 {
		c.Entries = 2_000_000
	}
	if c.Checkpoints <= 0 {
		c.Checkpoints = 20
	}
	if len(c.Indexes) == 0 {
		c.Indexes = IndexNames
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// Fig7Result bundles the insertion series (Fig 7a) and the lookup totals
// (Fig 7b).
type Fig7Result struct {
	Insert []harness.Series // accumulated seconds at each checkpoint
	Lookup *harness.Table   // total lookup milliseconds per index
	// LookupMS maps index name to its Figure 7b total.
	LookupMS map[string]float64
	// InsertTotalS maps index name to its total insertion seconds.
	InsertTotalS map[string]float64
}

// Fig7 runs insertions (7a) and the subsequent hit-only lookups (7b).
func Fig7(cfg Fig7Config) (*Fig7Result, error) {
	cfg.fill()
	res := &Fig7Result{
		Lookup:       harness.NewTable("Figure 7b: 100%-hit lookups after insertion"),
		LookupMS:     map[string]float64{},
		InsertTotalS: map[string]float64{},
	}
	step := cfg.Entries / cfg.Checkpoints
	if step < 1 {
		step = 1
	}

	for _, name := range cfg.Indexes {
		idx, err := buildIndex(name, cfg.Entries)
		if err != nil {
			return nil, fmt.Errorf("fig7 %s: %w", name, err)
		}
		cleanup := func() {
			if idx.release != nil {
				idx.release()
			}
		}

		// --- Figure 7a: insertion sequence with checkpoints.
		series := harness.Series{Label: name}
		var elapsed time.Duration
		inserted := 0
		for inserted < cfg.Entries {
			batch := step
			if cfg.Entries-inserted < batch {
				batch = cfg.Entries - inserted
			}
			start := time.Now()
			for i := 0; i < batch; i++ {
				k := workload.Key(cfg.Seed, uint64(inserted+i))
				if err := idx.Insert(k, uint64(inserted+i)); err != nil {
					cleanup()
					return nil, fmt.Errorf("fig7 %s insert: %w", name, err)
				}
			}
			elapsed += time.Since(start)
			inserted += batch
			series.Points = append(series.Points, harness.Point{
				X: fmt.Sprintf("%d", inserted),
				Y: elapsed.Seconds(),
			})
		}
		res.Insert = append(res.Insert, series)
		res.InsertTotalS[name] = elapsed.Seconds()

		// --- Figure 7b: hit-only lookups on the filled index. The paper
		// notes the shortcut is in sync before the lookup phase; kinds
		// without asynchronous maintenance report in-sync immediately.
		if idx.waitSync != nil && !idx.waitSync(30*time.Second) {
			cleanup()
			return nil, fmt.Errorf("fig7 %s: shortcut never synced", name)
		}
		start := time.Now()
		misses := 0
		workload.LookupStream(cfg.Seed, cfg.Entries, cfg.Entries, func(i int) {
			k := workload.Key(cfg.Seed, uint64(i))
			if _, ok := idx.Lookup(k); !ok {
				misses++
			}
		})
		lookupMS := us(time.Since(start)) / 1000
		if misses > 0 {
			cleanup()
			return nil, fmt.Errorf("fig7 %s: %d unexpected lookup misses", name, misses)
		}
		res.LookupMS[name] = lookupMS
		res.Lookup.AddRow(
			"index", name,
			"lookup total [ms]", fmt.Sprintf("%.1f", lookupMS),
			"per lookup [ns]", fmt.Sprintf("%.1f", lookupMS*1e6/float64(cfg.Entries)),
		)
		cleanup()
	}
	return res, nil
}
