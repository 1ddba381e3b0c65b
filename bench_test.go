// Benchmarks regenerating the paper's tables and figures as testing.B
// targets, one (family) per experiment. They run at laptop scale by
// default; cmd/shortcutbench reproduces the full sweeps and -paperscale
// restores the original workload sizes.
//
//	go test -bench=. -benchmem
package vmshortcut

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"vmshortcut/internal/core"
	"vmshortcut/internal/harness"
	"vmshortcut/internal/pool"
	"vmshortcut/internal/sceh"
	"vmshortcut/internal/sys"
	"vmshortcut/internal/vmsim"
	"vmshortcut/internal/workload"
)

var benchSink uint64

// benchNode builds a wide inner node over `leaves` pooled pages with the
// given slot count and fan-in, in both variants.
func benchNode(b *testing.B, slots, fanIn int) (*pool.Pool, *core.Traditional, *core.Shortcut) {
	b.Helper()
	leaves := slots / fanIn
	if leaves < 1 {
		leaves = 1
	}
	p, err := pool.New(pool.Config{GrowChunkPages: 1 << 10, MaxPages: leaves + (1 << 12)})
	if err != nil {
		b.Fatal(err)
	}
	run, err := p.AllocContiguous(leaves)
	if err != nil {
		b.Fatal(err)
	}
	ps := sys.PageSize()
	trad := core.NewTraditional(p, slots)
	for i := 0; i < slots; i++ {
		trad.Set(i, run+pool.Ref((i/fanIn)*ps))
	}
	sc, err := core.NewShortcut(p, slots)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sc.SetFromTraditional(trad, true); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { sc.Close(); p.Close() })
	return p, trad, sc
}

// --- Figure 2: random accesses through one wide inner node. ---

func BenchmarkFig2Access(b *testing.B) {
	const slots = 1 << 16 // 256 MB of leaves at fan-in 1
	_, trad, sc := benchNode(b, slots, 1)
	rng := workload.NewRNG(42)

	b.Run("Traditional", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slot := rng.Intn(slots)
			benchSink += *(*uint64)(sys.AddrToPointer(trad.LeafAddr(slot)))
		}
	})
	base := sc.Base()
	ps := uintptr(sys.PageSize())
	b.Run("Shortcut", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slot := rng.Intn(slots)
			benchSink += *(*uint64)(sys.AddrToPointer(base + uintptr(slot)*ps))
		}
	})
}

// --- Table 1: construction phases. ---

func BenchmarkTable1SetIndirection(b *testing.B) {
	b.Run("TraditionalPointerStore", func(b *testing.B) {
		p, err := pool.New(pool.Config{MaxPages: 1 << 12})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		ref, err := p.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		node := core.NewTraditional(p, 1<<10)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			node.Set(i&1023, ref)
		}
	})
	b.Run("ShortcutRemapLazy", func(b *testing.B) {
		benchRemap(b, false)
	})
	b.Run("ShortcutRemapPopulated", func(b *testing.B) {
		benchRemap(b, true)
	})
}

func benchRemap(b *testing.B, populate bool) {
	p, err := pool.New(pool.Config{MaxPages: 1 << 12})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	refs, err := p.AllocN(64)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := core.NewShortcut(p, 1<<10)
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.Set(i&1023, refs[i&63], populate); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1PopulatePerPage(b *testing.B) {
	p, err := pool.New(pool.Config{MaxPages: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	const pages = 1 << 10
	run, err := p.AllocContiguous(pages)
	if err != nil {
		b.Fatal(err)
	}
	ps := sys.PageSize()
	refs := make([]pool.Ref, pages)
	for i := range refs {
		refs[i] = run + pool.Ref(i*ps)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += pages {
		b.StopTimer()
		sc, err := core.NewShortcut(p, pages)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sc.SetAll(refs, false); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := sc.Populate(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		sc.Close()
		b.StartTimer()
	}
}

// --- Figure 4: fan-in sweep. ---

// Each fan-in builds its node inside its own sub-benchmark, so the node's
// Cleanup unmaps it before the next fan-in maps its own: above fan-in 1
// nearly every slot is a mapping of its own (57 345 of 65 536 at fan-in 8),
// and two such nodes together exceed Linux's default vm.max_map_count of
// 65530.
func BenchmarkFig4FanIn(b *testing.B) {
	const slots = 1 << 16
	for _, fanIn := range []int{64, 8, 1} {
		b.Run(fmt.Sprintf("fanin=%d", fanIn), func(b *testing.B) {
			_, trad, sc := benchNode(b, slots, fanIn)
			rng := workload.NewRNG(42)
			b.Run("Traditional", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					slot := rng.Intn(slots)
					benchSink += *(*uint64)(sys.AddrToPointer(trad.LeafAddr(slot)))
				}
			})
			base := sc.Base()
			ps := uintptr(sys.PageSize())
			b.Run("Shortcut", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					slot := rng.Intn(slots)
					benchSink += *(*uint64)(sys.AddrToPointer(base + uintptr(slot)*ps))
				}
			})
		})
	}
}

// --- Figure 5: remap cost (the shootdown driver's primitive). ---

func BenchmarkFig5Remap(b *testing.B) {
	p, err := pool.New(pool.Config{MaxPages: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	const pages = 1 << 12
	refs, err := p.AllocN(pages)
	if err != nil {
		b.Fatal(err)
	}
	sc, err := core.NewShortcut(p, pages)
	if err != nil {
		b.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.SetAll(refs, true); err != nil {
		b.Fatal(err)
	}
	rng := workload.NewRNG(7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sc.Set(rng.Intn(pages), refs[rng.Intn(pages)], true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7a: insertions. ---

// openBenchStore opens one kind via the facade; only the requested kind is
// constructed so no unrelated pool or mapper thread runs during the timed
// loop. The HT, HTI and CH baselines are not Store kinds: shortcutbench
// fig7 runs all five competitors.
func openBenchStore(b *testing.B, kind Kind) Store {
	b.Helper()
	s, err := Open(kind)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func BenchmarkFig7aInsert(b *testing.B) {
	for _, kind := range Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			idx := openBenchStore(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := idx.Insert(workload.Key(1, uint64(i)), uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figure 7b: hit-only lookups on a filled index. ---

func BenchmarkFig7bLookup(b *testing.B) {
	const n = 1 << 20
	for _, kind := range Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			idx := openBenchStore(b, kind)
			for i := 0; i < n; i++ {
				if err := idx.Insert(workload.Key(1, uint64(i)), uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			if !idx.WaitSync(time.Minute) {
				b.Fatal("shortcut never synced")
			}
			rng := workload.NewRNG(9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := workload.Key(1, uint64(rng.Intn(n)))
				if _, ok := idx.Lookup(k); !ok {
					b.Fatal("unexpected miss")
				}
			}
		})
	}
}

// --- Figure 8: the mixed workload op stream on Shortcut-EH. ---

func BenchmarkFig8Mixed(b *testing.B) {
	idx, err := Open(KindShortcutEH)
	if err != nil {
		b.Fatal(err)
	}
	defer idx.Close()
	const bulk = 1 << 19
	for i := 0; i < bulk; i++ {
		if err := idx.Insert(workload.Key(3, uint64(i)), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	idx.WaitSync(time.Minute)
	rng := workload.NewRNG(11)
	next := uint64(bulk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100 == 0 { // 1% inserts, like the paper's waves
			if err := idx.Insert(workload.Key(3, next), next); err != nil {
				b.Fatal(err)
			}
			next++
		} else {
			k := workload.Key(3, uint64(rng.Intn(int(next))))
			if _, ok := idx.Lookup(k); !ok {
				b.Fatal("miss")
			}
		}
	}
}

// --- Ablations. ---

func BenchmarkAblationCoalesce(b *testing.B) {
	p, err := pool.New(pool.Config{MaxPages: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	const pages = 1 << 10
	run, err := p.AllocContiguous(pages)
	if err != nil {
		b.Fatal(err)
	}
	ps := sys.PageSize()
	refs := make([]pool.Ref, pages)
	for i := range refs {
		refs[i] = run + pool.Ref(i*ps)
	}
	b.Run("PerSlot", func(b *testing.B) {
		for i := 0; i < b.N; i += pages {
			sc, err := core.NewShortcut(p, pages)
			if err != nil {
				b.Fatal(err)
			}
			for j, r := range refs {
				if err := sc.Set(j, r, false); err != nil {
					b.Fatal(err)
				}
			}
			sc.Close()
		}
	})
	b.Run("Coalesced", func(b *testing.B) {
		for i := 0; i < b.N; i += pages {
			sc, err := core.NewShortcut(p, pages)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sc.SetAll(refs, false); err != nil {
				b.Fatal(err)
			}
			sc.Close()
		}
	})
}

func BenchmarkAblationMaintenance(b *testing.B) {
	for _, v := range []struct {
		name string
		cfg  sceh.Config
	}{
		{"AsyncMapper", sceh.Config{}},
		{"Synchronous", sceh.Config{Synchronous: true}},
	} {
		b.Run(v.name, func(b *testing.B) {
			p, err := pool.New(pool.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			idx, err := sceh.New(p, v.cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer idx.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := idx.Insert(workload.Key(5, uint64(i)), uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- YCSB core mixes over EH vs Shortcut-EH. ---

func BenchmarkYCSB(b *testing.B) {
	const loaded = 1 << 19
	for _, mix := range []workload.Mix{workload.MixA, workload.MixC, workload.MixF} {
		for _, variant := range []string{"EH", "Shortcut-EH"} {
			b.Run("mix"+mix.Name+"/"+variant, func(b *testing.B) {
				kind := KindEH
				if variant == "Shortcut-EH" {
					kind = KindShortcutEH
				}
				idx, err := Open(kind)
				if err != nil {
					b.Fatal(err)
				}
				defer idx.Close()
				for i := 0; i < loaded; i++ {
					if err := idx.Insert(workload.Key(8, uint64(i)), uint64(i)); err != nil {
						b.Fatal(err)
					}
				}
				idx.WaitSync(time.Minute)
				b.ReportAllocs()
				b.ResetTimer()
				done := 0
				for done < b.N {
					workload.YCSB(uint64(done), mix, loaded, b.N-done, func(op workload.YCSBOp) {
						k := workload.Key(8, op.KeyIndex)
						switch op.Kind {
						case workload.OpRead:
							idx.Lookup(k)
						case workload.OpUpdate, workload.OpInsert:
							idx.Insert(k, op.KeyIndex)
						case workload.OpReadModifyWrite:
							if v, ok := idx.Lookup(k); ok {
								idx.Insert(k, v+1)
							}
						}
						done++
					})
				}
			})
		}
	}
}

// --- Facade batch operations vs loops of single calls. ---

// BenchmarkBatchVsSingle compares all-PUT and all-GET ApplyBatch calls
// against loops of single calls through the same Store surface. A batch
// pays the closed-store check and the Stats accounting once, but runs
// every entry through the index's single operation.
func BenchmarkBatchVsSingle(b *testing.B) {
	const batch = 1024
	const probeCount = 1 << 15 // multiple of batch
	for _, kind := range Kinds() {
		name := kind.String()
		b.Run(name+"/InsertSingle", func(b *testing.B) {
			idx := openBenchStore(b, kind)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := idx.Insert(workload.Key(4, uint64(i)), uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/InsertApply", func(b *testing.B) {
			idx := openBenchStore(b, kind)
			var (
				ob  OpBatch
				res OpResults
			)
			b.ReportAllocs()
			b.ResetTimer()
			harness.Chunks(b.N, batch, func(lo, hi int) {
				ob.Reset()
				for i := lo; i < hi; i++ {
					ob.Put(workload.Key(4, uint64(i)), uint64(i))
				}
				if err := idx.ApplyBatch(&ob, &res); err != nil {
					b.Fatal(err)
				}
			})
		})

		loaded := func(b *testing.B) (Store, []uint64) {
			b.Helper()
			idx := openBenchStore(b, kind)
			const n = 1 << 19
			for i := 0; i < n; i++ {
				if err := idx.Insert(workload.Key(4, uint64(i)), uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			if !idx.WaitSync(time.Minute) {
				b.Fatal("shortcut never synced")
			}
			rng := workload.NewRNG(17)
			probes := make([]uint64, probeCount)
			for i := range probes {
				probes[i] = workload.Key(4, uint64(rng.Intn(n)))
			}
			return idx, probes
		}
		b.Run(name+"/LookupSingle", func(b *testing.B) {
			idx, probes := loaded(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := idx.Lookup(probes[i%probeCount]); !ok {
					b.Fatal("miss")
				}
			}
		})
		b.Run(name+"/LookupApply", func(b *testing.B) {
			idx, probes := loaded(b)
			var (
				ob  OpBatch
				res OpResults
			)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += batch {
				k := probes[done%probeCount:]
				if len(k) > batch {
					k = k[:batch]
				}
				if done+len(k) > b.N {
					k = k[:b.N-done]
				}
				ob.Reset()
				for _, key := range k {
					ob.Get(key)
				}
				if err := idx.ApplyBatch(&ob, &res); err != nil {
					b.Fatal(err)
				}
				for _, ok := range res.Found {
					if !ok {
						b.Fatal("miss")
					}
				}
			}
		})
	}
}

// --- Sharded store: multi-goroutine batch throughput vs the single lock. ---

// shardCounts sweeps 1, 2, 4, ... up to GOMAXPROCS. shards=1 (plus
// WithConcurrency) is the old single-global-lock wrapper every other
// count is compared against.
func shardCounts() []int {
	counts := []int{1}
	for n := 2; n <= runtime.GOMAXPROCS(0); n *= 2 {
		counts = append(counts, n)
	}
	return counts
}

func openShardedBench(b *testing.B, shards int) Store {
	b.Helper()
	s, err := Open(KindShortcutEH,
		WithShards(shards),
		WithConcurrency(true), // shards=1 → the global-lock baseline
		WithPollInterval(time.Millisecond),
	)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkShardedInsertBatch measures concurrent batched insertion: every
// parallel goroutine claims a disjoint key range and pushes 1024-PUT
// ApplyBatch calls. One op is one batch. With shards=1 all writers serialize on the
// single write lock; higher shard counts stripe the lock and fan each
// batch out across shard goroutines.
func BenchmarkShardedInsertBatch(b *testing.B) {
	const batch = 1024
	for _, shards := range shardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := openShardedBench(b, shards)
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var (
					ob  OpBatch
					res OpResults
				)
				for pb.Next() {
					base := next.Add(batch) - batch
					ob.Reset()
					for i := uint64(0); i < batch; i++ {
						ob.Put(workload.Key(6, base+i), base+i)
					}
					if err := s.ApplyBatch(&ob, &res); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "inserts/s")
		})
	}
}

// BenchmarkShardedInsert measures contended single-op insertion: parallel
// goroutines each claim keys from a shared counter and insert one at a
// time. This isolates pure lock striping — with shards=1 every insert
// fights for the one write lock; sharding divides the contention without
// any batch fan-out machinery in the path.
func BenchmarkShardedInsert(b *testing.B) {
	for _, shards := range shardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := openShardedBench(b, shards)
			var next atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := next.Add(1) - 1
					if err := s.Insert(workload.Key(6, i), i); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkShardedLookupBatch measures concurrent 1024-GET ApplyBatch
// calls against a preloaded store. Reads already scale under the single RW lock, so this
// isolates what sharding adds on the read path (independent per-shard
// routing decisions and cache-local directories).
func BenchmarkShardedLookupBatch(b *testing.B) {
	const batch = 1024
	const n = 1 << 20
	for _, shards := range shardCounts() {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := openShardedBench(b, shards)
			var (
				load OpBatch
				res  OpResults
			)
			harness.Chunks(n, batch, func(lo, hi int) {
				load.Reset()
				for i := lo; i < hi; i++ {
					load.Put(workload.Key(6, uint64(i)), uint64(i))
				}
				if err := s.ApplyBatch(&load, &res); err != nil {
					b.Fatal(err)
				}
			})
			if !s.WaitSync(time.Minute) {
				b.Fatal("shards never synced")
			}
			var cursor atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var (
					ob  OpBatch
					res OpResults
				)
				for pb.Next() {
					base := cursor.Add(batch)
					ob.Reset()
					for i := uint64(0); i < batch; i++ {
						ob.Get(workload.Key(6, (base+i*2654435761)%n))
					}
					if err := s.ApplyBatch(&ob, &res); err != nil {
						b.Fatal(err)
					}
					for _, ok := range res.Found {
						if !ok {
							b.Fatal("miss")
						}
					}
				}
			})
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "lookups/s")
		})
	}
}

// --- vmsim: the simulated translation path itself. ---

func BenchmarkSimAccess(b *testing.B) {
	m := vmsim.New(vmsim.Config{})
	m.AutoFault = true
	const pages = 1 << 14
	for p := uint64(0); p < pages; p++ {
		m.Map(p, p)
	}
	rng := workload.NewRNG(13)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MustAccess(uint64(rng.Intn(pages)) << 12)
	}
}

// --- Shortcut-EH vs EH lookup head-to-head (the headline result). ---

func BenchmarkHeadlineLookup(b *testing.B) {
	const n = 1 << 20
	ehTbl, err := Open(KindEH)
	if err != nil {
		b.Fatal(err)
	}
	defer ehTbl.Close()
	scTbl, err := Open(KindShortcutEH)
	if err != nil {
		b.Fatal(err)
	}
	defer scTbl.Close()
	for i := 0; i < n; i++ {
		k := workload.Key(2, uint64(i))
		if err := ehTbl.Insert(k, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if err := scTbl.Insert(k, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if !scTbl.WaitSync(time.Minute) {
		b.Fatal("never synced")
	}
	rng := workload.NewRNG(21)
	b.Run("EH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := ehTbl.Lookup(workload.Key(2, uint64(rng.Intn(n)))); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("Shortcut-EH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, ok := scTbl.Lookup(workload.Key(2, uint64(rng.Intn(n)))); !ok {
				b.Fatal("miss")
			}
		}
	})
}
