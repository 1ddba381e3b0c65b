package experiments

import (
	"fmt"

	"vmshortcut"
	"vmshortcut/internal/harness"
	"vmshortcut/internal/hashfn"
	"vmshortcut/internal/vmsim"
	"vmshortcut/internal/workload"
)

// Fig7bSim reproduces the lookup comparison of Figure 7b on the simulated
// MMU, for the three structurally distinct competitors:
//
//   - HT: one open-addressing array — a single data access.
//   - EH: pointer directory then bucket — two dependent accesses.
//   - Shortcut-EH: one access through the shortcut directory, whose
//     virtual size is fan-in × the bucket set.
//
// The table *shape* (global depth, bucket count, average fan-in) comes
// from a real extendible hash table when the configured size is affordable
// to build, and otherwise from the empirically calibrated growth law
// (≈ n/61 buckets at load 0.35; directory one doubling past the bucket
// count). Note the regime dependence: the paper's ordering (HT fastest,
// Shortcut-EH close behind, EH last) emerges once the EH *directory*
// itself outgrows the caches — i.e. at the paper's 100M-entry scale. At
// cache-resident sizes the directory indirection is nearly free and the
// shortcut's larger virtual footprint can lose: on the default machine,
// Shortcut-EH costs 1–7 % more than EH per lookup at 50 000 to 1M entries.
func Fig7bSim(cfg Fig7Config) (map[string]float64, *harness.Table, error) {
	cfg.fill()

	var gd uint
	var buckets int
	if cfg.Entries <= 4_000_000 {
		// Build a real table through the facade to extract the exact shape.
		st, err := vmshortcut.Open(vmshortcut.KindEH,
			vmshortcut.WithPoolConfig(poolConfigFor(cfg.Entries)))
		if err != nil {
			return nil, nil, err
		}
		defer st.Close()
		for i := 0; i < cfg.Entries; i++ {
			if err := st.Insert(workload.Key(cfg.Seed, uint64(i)), uint64(i)); err != nil {
				return nil, nil, err
			}
		}
		shape := st.Stats()
		gd = shape.GlobalDepth
		buckets = shape.Buckets
	} else {
		// Synthesize the shape (calibrated on 1M/2M real builds).
		buckets = cfg.Entries / 61
		for gd = 1; 1<<gd < buckets; gd++ {
		}
		gd++
	}
	slots := 1 << gd
	fanIn := slots / buckets
	if fanIn < 1 {
		fanIn = 1
	}

	out := harness.NewTable(fmt.Sprintf(
		"Figure 7b (sim): per-lookup cost at n=%d (gd=%d, %d buckets, fan-in %.2f)",
		cfg.Entries, gd, buckets, float64(slots)/float64(buckets)))
	lookups := cfg.Entries
	if lookups > 1_000_000 {
		lookups = 1_000_000
	}
	perLookup := map[string]float64{}

	// Each variant runs the loop twice: a warm-up pass that maps the
	// region (AutoFault) and warms TLBs/caches — the state a table has
	// after its insertion phase — then the measured pass.
	measure := func(m *vmsim.MMU, loop func()) float64 {
		loop()
		m.ResetTime()
		loop()
		return m.Time() / float64(lookups)
	}

	// HT: one array of n/0.35 slots ≈ entries*16B/0.35 — model as a flat
	// physical region accessed by key hash.
	{
		m := vmsim.New(cfg.Sim)
		m.AutoFault = true
		htBytes := uint64(float64(cfg.Entries) * 16 / 0.35)
		perLookup["HT"] = measure(m, func() {
			for i := 0; i < lookups; i++ {
				k := workload.Key(cfg.Seed, uint64(i%cfg.Entries))
				off := hashfn.Hash(k) % htBytes &^ 7
				m.MustAccess(simLeafBase + off)
			}
		})
		out.AddRow("index", "HT (sim)",
			"per lookup [ns]", fmt.Sprintf("%.1f", perLookup["HT"]))
	}

	// EH: read the directory slot (pointer array), then the bucket page.
	{
		m := vmsim.New(cfg.Sim)
		m.AutoFault = true
		perLookup["EH"] = measure(m, func() {
			for i := 0; i < lookups; i++ {
				k := workload.Key(cfg.Seed, uint64(i%cfg.Entries))
				h := hashfn.Hash(k)
				slot := hashfn.DirIndex(h, gd)
				m.MustAccess(simTradBase + slot*8)
				bucketIdx := slot / uint64(fanIn) % uint64(buckets)
				off := hashfn.Hash2(k) % (simPage - 8) &^ 7
				m.MustAccess(simLeafBase + bucketIdx*simPage + off)
			}
		})
		out.AddRow("index", "EH (sim)",
			"per lookup [ns]", fmt.Sprintf("%.1f", perLookup["EH"]))
	}

	// Shortcut-EH: a single access into the 2^gd-page shortcut directory.
	{
		m := vmsim.New(cfg.Sim)
		m.AutoFault = true
		perLookup["Shortcut-EH"] = measure(m, func() {
			for i := 0; i < lookups; i++ {
				k := workload.Key(cfg.Seed, uint64(i%cfg.Entries))
				h := hashfn.Hash(k)
				slot := hashfn.DirIndex(h, gd)
				off := hashfn.Hash2(k) % (simPage - 8) &^ 7
				m.MustAccess(simShortBase + slot*simPage + off)
			}
		})
		out.AddRow("index", "Shortcut-EH (sim)",
			"per lookup [ns]", fmt.Sprintf("%.1f", perLookup["Shortcut-EH"]))
	}
	return perLookup, out, nil
}
