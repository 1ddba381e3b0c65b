// Command shortcutbench regenerates every table and figure of the paper's
// evaluation, plus the ablations, on either the real memory subsystem
// (mmap/memfd rewiring, wall-clock time) or the deterministic vmsim
// backend (simulated nanoseconds).
//
// Usage:
//
//	shortcutbench [flags] <experiment>
//
// Experiments:
//
//	fig2     wide inner node: traditional vs shortcut, size sweep
//	table1   creation + access cost phases (lazy/eager populate)
//	fig4     fan-in sweep (TLB thrashing crossover)
//	fig5     TLB shootdown shooter/reader costs
//	fig7a    insertion of N entries into all five indexes
//	fig7b    hit-only lookups after fig7a (runs both)
//	fig8     mixed workload: shortcut desync and catch-up trace
//	ablate   coalescing, poll interval, sync maintenance, 2 MB pages (vmsim)
//	all      everything above
//
// Flags scale the workloads; the defaults run in seconds on a laptop. Use
// -paperscale for the paper's original sizes (needs ≥32 GB RAM and
// patience).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vmshortcut/internal/experiments"
	"vmshortcut/internal/harness"
	"vmshortcut/internal/vmsim"
)

func main() {
	var (
		sim        = flag.Bool("sim", false, "run on the vmsim simulated MMU instead of real memory")
		both       = flag.Bool("both", false, "run real and simulated variants")
		accesses   = flag.Int("accesses", 1_000_000, "microbenchmark accesses (paper: 10M)")
		slots      = flag.Int("slots", 1<<18, "inner-node slots for table1/fig4 (paper: 2^22)")
		entries    = flag.Int("entries", 2_000_000, "fig7 insertions/lookups (paper: 100M)")
		bulk       = flag.Int("bulk", 1_000_000, "fig8 bulk-load size (paper: 92M)")
		paperscale = flag.Bool("paperscale", false, "use the paper's original workload sizes")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		nested     = flag.Bool("nested", false, "simulate nested paging (EPT) in the vmsim variants")
		seed       = flag.Uint64("seed", 42, "workload seed")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: shortcutbench [flags] <experiment>\nexperiments: %s\n",
			strings.Join(experimentNames, " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *paperscale {
		*accesses = 10_000_000
		*slots = 1 << 22
		*entries = 100_000_000
		*bulk = 92_000_000
	}
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	exp := flag.Arg(0)

	r := runner{
		sim: *sim, both: *both, csv: *csv, nested: *nested,
		accesses: *accesses, slots: *slots,
		entries: *entries, bulk: *bulk, seed: *seed,
	}
	start := time.Now()
	if err := r.run(exp); err != nil {
		fmt.Fprintf(os.Stderr, "shortcutbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("\n(total wall time: %s)\n", time.Since(start).Round(time.Millisecond))
}

type runner struct {
	sim, both, csv, nested bool
	accesses, slots        int
	entries, bulk          int
	seed                   uint64
}

// simConfig builds the vmsim machine for the sim variants.
func (r runner) simConfig() vmsim.Config {
	return vmsim.Config{NestedPaging: r.nested}
}

// experimentNames lists every experiment run accepts.
var experimentNames = []string{"fig2", "table1", "fig4", "fig5", "fig7a", "fig7b", "fig7", "fig8", "ablate", "all"}

func (r runner) run(exp string) error {
	switch exp {
	case "fig2":
		return r.fig2()
	case "table1":
		return r.table1()
	case "fig4":
		return r.fig4()
	case "fig5":
		return r.fig5()
	case "fig7a", "fig7b", "fig7":
		return r.fig7()
	case "fig8":
		return r.fig8()
	case "ablate":
		return r.ablate()
	case "all":
		for _, e := range []string{"fig2", "table1", "fig4", "fig5", "fig7", "fig8", "ablate"} {
			if err := r.run(e); err != nil {
				return fmt.Errorf("%s: %w", e, err)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown experiment %q (want one of: %s)", exp, strings.Join(experimentNames, " "))
}

func (r runner) renderSeries(title, x string, series []harness.Series) {
	if r.csv {
		tbl := harness.NewTable(title)
		for i := range series[0].Points {
			pairs := []string{x, series[0].Points[i].X}
			for _, s := range series {
				pairs = append(pairs, s.Label, fmt.Sprintf("%.3f", s.Points[i].Y))
			}
			tbl.AddRow(pairs...)
		}
		tbl.RenderCSV(os.Stdout)
		return
	}
	harness.RenderSeries(os.Stdout, title, x, series)
}

func (r runner) renderTable(t *harness.Table) {
	if r.csv {
		t.RenderCSV(os.Stdout)
		return
	}
	t.Render(os.Stdout)
}

func (r runner) fig2() error {
	cfg := experiments.Fig2Config{Accesses: r.accesses, Seed: r.seed, Sim: r.simConfig()}
	if !r.sim || r.both {
		series, err := experiments.Fig2(cfg)
		if err != nil {
			return err
		}
		r.renderSeries(
			fmt.Sprintf("Figure 2: %d random accesses through one wide inner node (real)", r.accesses),
			"dirMB,bucketMB(paper-equivalent)", series)
	}
	if r.sim || r.both {
		series, err := experiments.Fig2Sim(cfg)
		if err != nil {
			return err
		}
		r.renderSeries(
			fmt.Sprintf("Figure 2: %d random accesses (vmsim, simulated ms)", r.accesses),
			"dirMB,bucketMB(paper-equivalent)", series)
	}
	return nil
}

func (r runner) table1() error {
	cfg := experiments.Table1Config{Slots: r.slots, Accesses: r.accesses, Seed: r.seed, Sim: r.simConfig()}
	if !r.sim || r.both {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		r.renderTable(experiments.Table1Render(rows))
	}
	if r.sim || r.both {
		rows, err := experiments.Table1Sim(cfg)
		if err != nil {
			return err
		}
		r.renderTable(experiments.Table1Render(rows))
	}
	return nil
}

func (r runner) fig4() error {
	cfg := experiments.Fig4Config{Slots: r.slots, Accesses: r.accesses, Seed: r.seed, Sim: r.simConfig()}
	if !r.sim || r.both {
		series, err := experiments.Fig4(cfg)
		if err != nil {
			return err
		}
		r.renderSeries("Figure 4: impact of fan-in (real, total ms)", "fan-in", series)
	}
	if r.sim || r.both {
		series, err := experiments.Fig4Sim(cfg)
		if err != nil {
			return err
		}
		r.renderSeries("Figure 4: impact of fan-in (vmsim, simulated ms)", "fan-in", series)
	}
	return nil
}

func (r runner) fig5() error {
	cfg := experiments.Fig5Config{Seed: r.seed, Sim: r.simConfig()}
	if !r.sim || r.both {
		results, err := experiments.Fig5(cfg)
		if err != nil {
			return err
		}
		t := experiments.Fig5Render(results)
		t.Title += " — real threads (needs multi-core for the paper shape)"
		r.renderTable(t)
	}
	if r.sim || r.both {
		results, err := experiments.Fig5Sim(cfg)
		if err != nil {
			return err
		}
		t := experiments.Fig5Render(results)
		t.Title += " — vmsim (deterministic)"
		r.renderTable(t)
	}
	return nil
}

func (r runner) fig7() error {
	if !r.sim || r.both {
		res, err := experiments.Fig7(experiments.Fig7Config{Entries: r.entries, Seed: r.seed})
		if err != nil {
			return err
		}
		r.renderSeries(
			fmt.Sprintf("Figure 7a: accumulated insertion time [s], %d uniform entries, max load 0.35", r.entries),
			"inserted", res.Insert)
		r.renderTable(res.Lookup)
	}
	if r.sim || r.both {
		// The sim variant runs at the paper's 100M-entry scale, where the
		// EH directory outgrows the caches — the regime Figure 7b targets.
		entries := r.entries
		if entries < 100_000_000 {
			entries = 100_000_000
		}
		_, tbl, err := experiments.Fig7bSim(experiments.Fig7Config{
			Entries: entries, Seed: r.seed, Sim: r.simConfig(),
		})
		if err != nil {
			return err
		}
		r.renderTable(tbl)
	}
	return nil
}

func (r runner) fig8() error {
	points, err := experiments.Fig8(experiments.Fig8Config{BulkLoad: r.bulk, Seed: r.seed})
	if err != nil {
		return err
	}
	r.renderTable(experiments.Fig8Render(points))
	return nil
}

func (r runner) ablate() error {
	coal, err := experiments.AblationCoalesce(1 << 14)
	if err != nil {
		return err
	}
	r.renderTable(coal)

	poll, err := experiments.AblationPollInterval(r.entries/4, nil)
	if err != nil {
		return err
	}
	r.renderTable(poll)

	sync, err := experiments.AblationSyncMaintenance(r.entries / 4)
	if err != nil {
		return err
	}
	r.renderTable(sync)

	huge, err := experiments.AblationHugePagesSim(r.accesses/2, nil)
	if err != nil {
		return err
	}
	r.renderTable(huge)
	return nil
}
