package experiments

import (
	"fmt"
	"runtime"
	"time"

	"vmshortcut"
	"vmshortcut/internal/harness"
	"vmshortcut/internal/workload"
)

// ShardScaleConfig parameterizes the shard-scaling experiment: concurrent
// writers and readers driving batched operations against the sharded
// Shortcut-EH store at increasing shard counts. It is not a paper figure —
// the paper's prototype is single-writer — but the scaling curve answers
// the production question the ROADMAP poses: does hash-partitioning the
// keyspace buy mutation throughput on multi-core hardware?
type ShardScaleConfig struct {
	// Entries inserted (and then looked up) per shard count. Default 1M.
	Entries int
	// Shards lists the shard counts to sweep. Default {1, 2, 4, ...} up
	// to GOMAXPROCS. Shard count 1 is the WithConcurrency single-lock
	// baseline every other row is normalized against.
	Shards []int
	// Procs lists GOMAXPROCS settings to sweep; each value is crossed
	// with every shard count. 0 keeps the runtime's current setting.
	// Default {0} — a plain shard sweep.
	Procs []int
	// Workers is the number of driving goroutines. Default GOMAXPROCS.
	// Fixed once for the whole sweep, so rows differ only in the axis
	// under test, not in offered load.
	Workers int
	// Batch is the entries per ApplyBatch call of each worker.
	// Default 1024.
	Batch int
	Seed  uint64
}

func (c *ShardScaleConfig) fill() {
	if c.Entries <= 0 {
		c.Entries = 1_000_000
	}
	if len(c.Shards) == 0 {
		maxProcs := runtime.GOMAXPROCS(0)
		for n := 1; n <= maxProcs; n *= 2 {
			c.Shards = append(c.Shards, n)
		}
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{0}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Batch <= 0 {
		c.Batch = 1024
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
}

// ShardScaleRow is one (procs, shards) cell's measurement.
type ShardScaleRow struct {
	Procs     int // effective GOMAXPROCS the cell ran under
	Shards    int
	InsertMPS float64 // million inserts per second, all workers combined
	LookupMPS float64 // million lookups per second, all workers combined
}

// ShardScale sweeps the procs×shards grid and measures multi-goroutine
// batched insert and lookup throughput on the sharded Shortcut-EH store.
// GOMAXPROCS is restored to its entry value before returning.
func ShardScale(cfg ShardScaleConfig) ([]ShardScaleRow, error) {
	cfg.fill()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	rows := make([]ShardScaleRow, 0, len(cfg.Procs)*len(cfg.Shards))
	for _, procs := range cfg.Procs {
		effective := procs
		if procs > 0 {
			runtime.GOMAXPROCS(procs)
		} else {
			runtime.GOMAXPROCS(prev)
			effective = prev
		}
		for _, shards := range cfg.Shards {
			row, err := shardScaleOne(cfg, shards)
			if err != nil {
				return nil, fmt.Errorf("procs=%d shards=%d: %w", effective, shards, err)
			}
			row.Procs = effective
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func shardScaleOne(cfg ShardScaleConfig, shards int) (ShardScaleRow, error) {
	s, err := vmshortcut.Open(vmshortcut.KindShortcutEH,
		vmshortcut.WithShards(shards),
		vmshortcut.WithConcurrency(true), // shards=1 → today's single global lock
		vmshortcut.WithCapacity(cfg.Entries),
		vmshortcut.WithPollInterval(time.Millisecond),
	)
	if err != nil {
		return ShardScaleRow{}, err
	}
	defer s.Close()

	errs := make([]error, cfg.Workers)
	start := time.Now()
	harness.ParallelChunks(cfg.Entries, cfg.Workers, func(w, lo, hi int) {
		var (
			b   vmshortcut.OpBatch
			res vmshortcut.OpResults
		)
		harness.Chunks(hi-lo, cfg.Batch, func(clo, chi int) {
			if errs[w] != nil {
				return
			}
			b.Reset()
			for i := lo + clo; i < lo+chi; i++ {
				b.Put(workload.Key(cfg.Seed, uint64(i)), uint64(i))
			}
			errs[w] = s.ApplyBatch(&b, &res)
		})
	})
	insertDur := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ShardScaleRow{}, err
		}
	}
	if !s.WaitSync(time.Minute) {
		return ShardScaleRow{}, fmt.Errorf("shortcut directories never synced")
	}

	missesBy := make([]int, cfg.Workers) // per-worker slot: no shared counter
	start = time.Now()
	harness.ParallelChunks(cfg.Entries, cfg.Workers, func(w, lo, hi int) {
		var (
			b   vmshortcut.OpBatch
			res vmshortcut.OpResults
		)
		harness.Chunks(hi-lo, cfg.Batch, func(clo, chi int) {
			b.Reset()
			for i := lo + clo; i < lo+chi; i++ {
				b.Get(workload.Key(cfg.Seed, uint64(i)))
			}
			if err := s.ApplyBatch(&b, &res); err != nil {
				errs[w] = err
				return
			}
			for _, ok := range res.Found {
				if !ok {
					missesBy[w]++
				}
			}
		})
	})
	lookupDur := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return ShardScaleRow{}, err
		}
	}
	misses := 0
	for _, m := range missesBy {
		misses += m
	}
	if misses > 0 {
		return ShardScaleRow{}, fmt.Errorf("%d unexpected misses", misses)
	}

	return ShardScaleRow{
		Shards:    shards,
		InsertMPS: float64(cfg.Entries) / insertDur.Seconds() / 1e6,
		LookupMPS: float64(cfg.Entries) / lookupDur.Seconds() / 1e6,
	}, nil
}

// ShardScaleRender formats the sweep with each row's speedup over the
// first row — the shards=1 single-lock baseline at the first procs
// setting. The procs column appears only when the sweep varied it.
func ShardScaleRender(rows []ShardScaleRow) *harness.Table {
	tbl := harness.NewTable("Shard scaling: parallel batched ops vs the single-lock store")
	multiProcs := false
	for _, r := range rows {
		if r.Procs != rows[0].Procs {
			multiProcs = true
		}
	}
	var baseIns, baseLk float64
	for i, r := range rows {
		if i == 0 {
			baseIns, baseLk = r.InsertMPS, r.LookupMPS
		}
		cells := make([]string, 0, 14)
		if multiProcs {
			cells = append(cells, "procs", fmt.Sprintf("%d", r.Procs))
		}
		cells = append(cells,
			"shards", fmt.Sprintf("%d", r.Shards),
			"insert M/s", fmt.Sprintf("%.2f", r.InsertMPS),
			"insert speedup", harness.Ratio(r.InsertMPS, baseIns),
			"lookup M/s", fmt.Sprintf("%.2f", r.LookupMPS),
			"lookup speedup", harness.Ratio(r.LookupMPS, baseLk),
		)
		tbl.AddRow(cells...)
	}
	return tbl
}
