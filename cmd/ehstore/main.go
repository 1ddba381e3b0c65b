// Command ehstore is a workbench for the hash indexes behind the
// vmshortcut.Open facade: it loads a generated keyspace into a chosen
// index kind, fires a query mix, and prints throughput plus the uniform
// Stats counters. Useful for quick what-if runs outside the full
// benchmark harness.
//
// With -wal-dir the index is opened durable: the keyspace is recovered
// from the newest snapshot plus the WAL tail before the run, and every
// mutation is logged. -admin runs one administrative operation against
// such a directory and exits: "snap" takes a point-in-time snapshot,
// "compact" drops the WAL segments the newest snapshot covers. Snapshots
// store plain (key, value) pairs, so they are portable across index
// kinds — a keyspace written under -index eh restores into -index ht.
//
// Usage:
//
//	ehstore [-index shortcut-eh|eh|ht|hti|ch] [-n 1000000] [-reads 1000000]
//	        [-deletes 0.1] [-poll 25ms] [-batch 0] [-shards 1] [-workers 1]
//	ehstore -wal-dir /var/lib/ehstore -admin snap
//	ehstore -wal-dir /var/lib/ehstore -admin compact
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"vmshortcut"
	"vmshortcut/internal/harness"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/workload"
	"vmshortcut/wal"
)

func main() {
	index := flag.String("index", "shortcut-eh", "index kind: shortcut-eh | eh | ht | hti | ch")
	n := flag.Int("n", 1_000_000, "entries to load")
	reads := flag.Int("reads", 1_000_000, "hit-only lookups to fire")
	deletes := flag.Float64("deletes", 0, "fraction of entries to delete after the read phase")
	poll := flag.Duration("poll", vmshortcut.DefaultPollInterval, "mapper tick: bounds how long readers see a stale shortcut (shortcut-eh)")
	seed := flag.Uint64("seed", 42, "keyspace seed")
	hist := flag.Bool("hist", false, "print a read-latency histogram")
	batch := flag.Int("batch", 0, "run load and read phases through ApplyBatch, this many PUTs or GETs per call (0 = single ops)")
	shards := flag.Int("shards", 1, "hash-partition the keyspace across this many independent shards")
	workers := flag.Int("workers", 1, "goroutines driving the load and read phases (>1 requires -shards > 1 or implies a shared-lock store)")
	trace := flag.String("trace", "", "replay an operation trace file instead of the generated workload (I/L/D lines)")
	walDir := flag.String("wal-dir", "", "open the index durable: recover from (and log mutations to) this WAL directory")
	fsyncName := flag.String("fsync", "always", "WAL fsync policy with -wal-dir: always | interval | off")
	admin := flag.String("admin", "", "administrative operation against -wal-dir, then exit: snap | compact")
	flag.Parse()

	kind, err := vmshortcut.ParseKind(*index)
	if err != nil {
		log.Fatal(err)
	}
	if *hist && *batch > 0 {
		log.Fatal("-hist records per-op latencies and requires -batch=0")
	}
	if *hist && *workers > 1 {
		log.Fatal("-hist records per-op latencies and requires -workers=1")
	}
	if *walDir != "" && *batch > wal.MaxRecordPairs {
		log.Fatalf("-batch %d: a durable batch is one WAL record, at most %d entries", *batch, wal.MaxRecordPairs)
	}
	opts := []vmshortcut.Option{
		vmshortcut.WithPollInterval(*poll),
		vmshortcut.WithShards(*shards),
	}
	if *workers > 1 && *shards <= 1 {
		// Multi-goroutine driving of an unsharded store needs the global
		// readers-writer lock; say so rather than racing.
		opts = append(opts, vmshortcut.WithConcurrency(true))
	}
	if kind == vmshortcut.KindCH {
		// The paper's 10-bytes-per-entry directory budget for CH.
		opts = append(opts, vmshortcut.WithTableBytes(*n*10))
	}
	if *walDir != "" {
		mode, err := vmshortcut.ParseFsyncMode(*fsyncName)
		if err != nil {
			log.Fatal(err)
		}
		opts = append(opts, vmshortcut.WithWAL(*walDir), vmshortcut.WithFsync(mode))
	}
	if *admin != "" && *walDir == "" {
		log.Fatal("-admin requires -wal-dir")
	}
	idx, err := vmshortcut.Open(kind, opts...)
	if err != nil {
		log.Fatalf("open %s: %v", kind, err)
	}
	defer idx.Close()

	if *admin != "" {
		if err := runAdmin(idx, *admin); err != nil {
			log.Fatalf("admin %s: %v", *admin, err)
		}
		return
	}

	if *trace != "" {
		if err := replayTrace(idx, *trace); err != nil {
			log.Fatalf("trace: %v", err)
		}
		return
	}

	fmt.Printf("index=%s n=%d reads=%d batch=%d shards=%d workers=%d\n",
		kind, *n, *reads, *batch, *shards, *workers)

	start := time.Now()
	harness.ParallelChunks(*n, *workers, func(w, wlo, whi int) {
		if *batch > 0 {
			var (
				b   vmshortcut.OpBatch
				res vmshortcut.OpResults
			)
			harness.Chunks(whi-wlo, *batch, func(clo, chi int) {
				b.Reset()
				for i := wlo + clo; i < wlo+chi; i++ {
					b.Put(workload.Key(*seed, uint64(i)), uint64(i))
				}
				if err := idx.ApplyBatch(&b, &res); err != nil {
					log.Fatalf("insert batch [%d,%d): %v", wlo+clo, wlo+chi, err)
				}
			})
			return
		}
		for i := wlo; i < whi; i++ {
			if err := idx.Insert(workload.Key(*seed, uint64(i)), uint64(i)); err != nil {
				log.Fatalf("insert %d: %v", i, err)
			}
		}
	})
	loadDur := time.Since(start)
	fmt.Printf("load:    %10s  (%.0f inserts/s)\n", loadDur.Round(time.Millisecond),
		float64(*n)/loadDur.Seconds())

	start = time.Now()
	if idx.WaitSync(time.Minute) && kind == vmshortcut.KindShortcutEH {
		fmt.Printf("sync:    %10s  (shortcut directory caught up)\n",
			time.Since(start).Round(time.Millisecond))
	}

	var latencies obs.HDR
	start = time.Now()
	workerMisses := make([]int, *workers)
	harness.ParallelChunks(*reads, *workers, func(w, wlo, whi int) {
		// Each worker draws its own lookup stream (seed offset by worker)
		// so streams are independent and need no shared RNG state.
		wseed := *seed + uint64(w)*0x9E3779B97F4A7C15
		count := whi - wlo
		if *batch > 0 {
			var (
				b   vmshortcut.OpBatch
				res vmshortcut.OpResults
			)
			flush := func() {
				if err := idx.ApplyBatch(&b, &res); err != nil {
					log.Fatalf("lookup batch: %v", err)
				}
				for _, ok := range res.Found {
					if !ok {
						workerMisses[w]++
					}
				}
				b.Reset()
			}
			workload.LookupStream(wseed, *n, count, func(i int) {
				b.Get(workload.Key(*seed, uint64(i)))
				if b.Len() == *batch {
					flush()
				}
			})
			if b.Len() > 0 {
				flush()
			}
			return
		}
		workload.LookupStream(wseed, *n, count, func(i int) {
			if *hist { // -hist forces workers=1, so latencies is unshared
				t0 := time.Now()
				if _, ok := idx.Lookup(workload.Key(*seed, uint64(i))); !ok {
					workerMisses[w]++
				}
				latencies.Record(uint64(time.Since(t0).Nanoseconds()))
				return
			}
			if _, ok := idx.Lookup(workload.Key(*seed, uint64(i))); !ok {
				workerMisses[w]++
			}
		})
	})
	readDur := time.Since(start)
	misses := 0
	for _, m := range workerMisses {
		misses += m
	}
	fmt.Printf("read:    %10s  (%.0f lookups/s, %d misses)\n", readDur.Round(time.Millisecond),
		float64(*reads)/readDur.Seconds(), misses)

	if *hist {
		fmt.Printf("latency: samples %d  mean %.1f  min %d  p50 %d  p99 %d  p99.9 %d  max %d  [ns]\n",
			latencies.Count(), latencies.Mean(), latencies.Min(),
			latencies.Percentile(50), latencies.Percentile(99), latencies.Percentile(99.9), latencies.Max())
	}

	if *deletes > 0 {
		nd := int(float64(*n) * *deletes)
		start = time.Now()
		removed := 0
		for i := 0; i < nd; i++ {
			if idx.Delete(workload.Key(*seed, uint64(i))) {
				removed++
			}
		}
		fmt.Printf("delete:  %10s  (%d removed, %d remain)\n",
			time.Since(start).Round(time.Millisecond), removed, idx.Len())
	}

	st := idx.Stats()
	switch kind {
	case vmshortcut.KindShortcutEH:
		fmt.Printf("stats:   global_depth=%d buckets=%d fan_in=%.2f shortcut_lookups=%d traditional=%d remaps=%d\n",
			st.GlobalDepth, st.Buckets, st.AvgFanIn,
			st.ShortcutLookups, st.TraditionalLookups, st.Remaps)
	case vmshortcut.KindEH:
		fmt.Printf("stats:   global_depth=%d buckets=%d fan_in=%.2f structural_mods=%d\n",
			st.GlobalDepth, st.Buckets, st.AvgFanIn, st.StructuralMods)
	default:
		fmt.Printf("stats:   entries=%d structural_mods=%d\n", st.Entries, st.StructuralMods)
	}
	if *walDir != "" {
		fmt.Printf("wal:     records=%d syncs=%d durable_lsn=%d snapshot_lsn=%d segments=%d bytes=%d\n",
			st.WALRecords, st.WALSyncs, st.DurableLSN, st.SnapshotLSN, st.WALSegments, st.WALBytes)
	}
}

// runAdmin executes one durability administration operation: SNAP takes
// a point-in-time snapshot of the recovered keyspace, COMPACT drops the
// WAL segments the newest snapshot has made redundant.
func runAdmin(idx vmshortcut.Store, op string) error {
	d, ok := vmshortcut.AsDurable(idx)
	if !ok {
		return fmt.Errorf("store is not durable")
	}
	switch op {
	case "snap":
		start := time.Now()
		if err := d.Snapshot(); err != nil {
			return err
		}
		st := idx.Stats()
		fmt.Printf("snap: %d entries snapshotted at LSN %d in %s\n",
			st.Entries, st.SnapshotLSN, time.Since(start).Round(time.Millisecond))
	case "compact":
		removed, err := d.CompactWAL()
		if err != nil {
			return err
		}
		ws := d.WALStats()
		fmt.Printf("compact: %d segments removed; %d remain (%d bytes, last LSN %d)\n",
			removed, ws.Segments, ws.Bytes, ws.LastLSN)
	default:
		return fmt.Errorf("unknown operation %q (want snap or compact)", op)
	}
	return nil
}

// replayTrace streams a trace file through the index and reports counts
// and throughput.
func replayTrace(idx vmshortcut.Store, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var ins, hits, missed, dels int
	start := time.Now()
	err = workload.ReadTrace(f, func(op workload.TraceOp) error {
		switch op.Kind {
		case 'I':
			ins++
			return idx.Insert(op.Key, op.Value)
		case 'L':
			if _, ok := idx.Lookup(op.Key); ok {
				hits++
			} else {
				missed++
			}
		case 'D':
			if idx.Delete(op.Key) {
				dels++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	total := ins + hits + missed + dels
	dur := time.Since(start)
	fmt.Printf("trace:   %d ops in %s (%.0f ops/s): %d inserts, %d hits, %d misses, %d deletes; %d entries remain\n",
		total, dur.Round(time.Millisecond), float64(total)/dur.Seconds(),
		ins, hits, missed, dels, idx.Len())
	return nil
}
