package experiments

import (
	"fmt"
	"time"

	"vmshortcut/internal/harness"
	"vmshortcut/internal/sceh"
	"vmshortcut/internal/workload"
)

// Fig8Config parameterizes the mixed-workload synchronization experiment:
// bulk-load both EH and Shortcut-EH, then fire waves of accesses whose
// first 1% are insertions. The insertion bursts desync the shortcut
// directory; the experiment tracks per-batch lookup latency and both
// version numbers to show the shortcut catching up and the lookup time of
// Shortcut-EH dropping back below EH.
type Fig8Config struct {
	// BulkLoad entries inserted up front. Paper: 92M. Default 1M.
	BulkLoad int
	// Waves and their shape. Paper: 4 waves of 2M accesses, 1% inserts.
	Waves          int
	WaveAccesses   int     // default BulkLoad/46 ≈ paper's 2M:92M ratio
	InsertFraction float64 // default 0.01
	// Batch is the lookup-latency reporting granularity. Paper: 10k.
	Batch int
	Seed  uint64
	// PollInterval for the shortcut mapper. Default 25ms (paper).
	PollInterval time.Duration
}

func (c *Fig8Config) fill() {
	if c.BulkLoad <= 0 {
		c.BulkLoad = 1_000_000
	}
	if c.Waves <= 0 {
		c.Waves = 4
	}
	if c.WaveAccesses <= 0 {
		c.WaveAccesses = c.BulkLoad / 46
		if c.WaveAccesses < 100 {
			c.WaveAccesses = 100
		}
	}
	if c.InsertFraction <= 0 {
		c.InsertFraction = 0.01
	}
	if c.Batch <= 0 {
		c.Batch = c.WaveAccesses / 20
		if c.Batch < 1 {
			c.Batch = 1
		}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 25 * time.Millisecond
	}
}

// Fig8Point is one reporting batch.
type Fig8Point struct {
	Accesses    int     // accesses performed so far
	EHBatchUS   float64 // EH: lookup time of this batch, µs
	SCBatchUS   float64 // Shortcut-EH: lookup time of this batch, µs
	TradVer     uint64  // version of the traditional directory
	ShortcutVer uint64  // version of the shortcut directory
	InSync      bool
	// ShortcutFrac is the fraction of this batch's Shortcut-EH lookups
	// answered through the shortcut directory. It exposes desync windows
	// even when versions have re-converged by sampling time.
	ShortcutFrac float64
}

// Fig8 runs the mixed workload against EH and Shortcut-EH.
func Fig8(cfg Fig8Config) ([]Fig8Point, error) {
	cfg.fill()

	ehTbl, releaseEH, err := newEH(cfg.BulkLoad * 2)
	if err != nil {
		return nil, err
	}
	defer releaseEH()

	scTbl, releaseSC, err := newShortcutEH(cfg.BulkLoad*2, sceh.Config{PollInterval: cfg.PollInterval})
	if err != nil {
		return nil, err
	}
	defer releaseSC()

	// Bulk load both indexes with the same keyspace.
	for i := 0; i < cfg.BulkLoad; i++ {
		k := workload.Key(cfg.Seed, uint64(i))
		if err := ehTbl.Insert(k, uint64(i)); err != nil {
			return nil, fmt.Errorf("fig8 EH bulk: %w", err)
		}
		if err := scTbl.Insert(k, uint64(i)); err != nil {
			return nil, fmt.Errorf("fig8 SCEH bulk: %w", err)
		}
	}
	// Let the shortcut catch up before the waves start, like the paper.
	scTbl.WaitSync(30 * time.Second)

	waves := make([]workload.Wave, cfg.Waves)
	for i := range waves {
		waves[i] = workload.Wave{Accesses: cfg.WaveAccesses, InsertFraction: cfg.InsertFraction}
	}

	// Materialize the op stream once so both indexes replay it equally.
	var ops []workload.MixedOp
	workload.MixedWaves(cfg.Seed, cfg.BulkLoad, waves, func(op workload.MixedOp) {
		ops = append(ops, op)
	})

	var points []Fig8Point
	var ehBatch, scBatch time.Duration
	lastStats := scTbl.Stats()
	for i, op := range ops {
		if op.Insert {
			if err := ehTbl.Insert(op.Key, op.Value); err != nil {
				return nil, err
			}
			if err := scTbl.Insert(op.Key, op.Value); err != nil {
				return nil, err
			}
		} else {
			start := time.Now()
			if _, ok := ehTbl.Lookup(op.Key); !ok {
				return nil, fmt.Errorf("fig8 EH lost key %d", op.Key)
			}
			ehBatch += time.Since(start)

			start = time.Now()
			if _, ok := scTbl.Lookup(op.Key); !ok {
				return nil, fmt.Errorf("fig8 SCEH lost key %d", op.Key)
			}
			scBatch += time.Since(start)
		}
		if (i+1)%cfg.Batch == 0 || i == len(ops)-1 {
			st := scTbl.Stats()
			dSC := st.ShortcutLookups - lastStats.ShortcutLookups
			dTR := st.TraditionalLookups - lastStats.TraditionalLookups
			frac := 0.0
			if dSC+dTR > 0 {
				frac = float64(dSC) / float64(dSC+dTR)
			}
			lastStats = st
			points = append(points, Fig8Point{
				Accesses:     i + 1,
				EHBatchUS:    us(ehBatch),
				SCBatchUS:    us(scBatch),
				TradVer:      scTbl.TradVersion(),
				ShortcutVer:  scTbl.ShortcutVersion(),
				InSync:       scTbl.InSync(),
				ShortcutFrac: frac,
			})
			ehBatch, scBatch = 0, 0
		}
	}
	return points, nil
}

// Fig8Render formats the synchronization trace.
func Fig8Render(points []Fig8Point) *harness.Table {
	t := harness.NewTable("Figure 8: synchronization under a mixed workload (1% inserts, waves)")
	for _, p := range points {
		t.AddRow(
			"accesses", fmt.Sprintf("%d", p.Accesses),
			"EH batch [us]", fmt.Sprintf("%.1f", p.EHBatchUS),
			"Shortcut-EH batch [us]", fmt.Sprintf("%.1f", p.SCBatchUS),
			"trad ver", fmt.Sprintf("%d", p.TradVer),
			"shortcut ver", fmt.Sprintf("%d", p.ShortcutVer),
			"in sync", fmt.Sprintf("%v", p.InSync),
			"via shortcut", fmt.Sprintf("%.0f%%", 100*p.ShortcutFrac),
		)
	}
	return t
}
