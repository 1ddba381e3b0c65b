// Package bench is the reusable server-benchmark driver and experiment
// machinery shared by cmd/ehload (one ad-hoc run) and cmd/ehbench (the
// reproducible experiment grid): preload a keyspace over the wire, drive
// a YCSB mix over N pipelined connections with every response verified,
// and report throughput plus an HDR latency histogram in the
// BENCH_server.json schema (Report).
//
// The package also owns the grid side of the story: experiments.json
// parsing and cross-product expansion (grid.go), in-process cell
// execution with warmup and repeats (runner.go), grouped mean/std
// summaries, CSV artifacts and the BENCH_history.json trajectory
// (summary.go), and the regression gate (compare.go).
package bench

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"vmshortcut/client"
	"vmshortcut/internal/harness"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/workload"
)

// Batch modes: how each worker turns its generated ops into wire frames.
const (
	BatchNone  = "none"  // pipelined single-op frames (the server coalesces)
	BatchMixed = "mixed" // each round trip as ONE MIXEDBATCH frame
)

// Config shapes one measured run against a serving address.
type Config struct {
	Addr      string
	Mix       workload.Mix
	Conns     int
	Pipeline  int
	BatchMode string // BatchNone | BatchMixed
	Load      int    // keyspace entries preloaded before the measured run
	// Warmup drives the workload for this long after the preload and
	// discards the results, so the measured run starts against warmed
	// caches, a settled shortcut directory, and resident WAL segments.
	Warmup   time.Duration
	Duration time.Duration
	Ops      int // fixed op budget per connection instead of Duration (0 = use Duration)
	Seed     uint64
	// AdminAddr is the server's admin HTTP address. When set, the driver
	// scrapes /metrics immediately before and after the measured drive and
	// reports the server-side window delta (counters and per-stage latency
	// percentiles) alongside the client-side numbers.
	AdminAddr string
	// SampleRate is the per-round-trip trace-sampling probability each
	// worker connection runs with (client.Conn.SetSampling). 0 disables
	// sampling; sampled traces land in the server's flight recorder
	// (/tracez on its admin listener).
	SampleRate float64
}

// DistName is the distribution label runs are reported under.
func (c Config) DistName() string {
	if c.Mix.Zipf {
		return "zipfian"
	}
	return "uniform"
}

// Validate rejects configurations the driver cannot run. The commands
// layer their own flag-specific messages on top; this is the shared
// floor so a malformed experiments.json cell fails before dialing.
func (c Config) Validate() error {
	switch {
	case c.Load <= 0:
		return fmt.Errorf("bench: load must be positive: reads need a non-empty keyspace")
	case c.Conns <= 0 || c.Pipeline <= 0:
		return fmt.Errorf("bench: conns and pipeline must be positive")
	case c.Ops < 0:
		return fmt.Errorf("bench: ops must be non-negative")
	case c.Ops == 0 && c.Duration <= 0:
		return fmt.Errorf("bench: duration must be positive when ops is 0 (the run would never stop)")
	case c.BatchMode != BatchNone && c.BatchMode != BatchMixed:
		return fmt.Errorf("bench: unknown batch mode %q", c.BatchMode)
	case c.SampleRate < 0 || c.SampleRate > 1:
		return fmt.Errorf("bench: sample rate must be in [0, 1]")
	}
	return nil
}

// workerResult is one connection's tally.
type workerResult struct {
	ops      uint64
	errors   uint64
	opCounts [4]uint64 // by workload.OpKind
	hist     obs.HDR
}

// Run executes one benchmark: preload, optional warmup, then the
// measured drive, finishing with a server/store stats snapshot.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Preload [0, load) across the connections, one MIXEDBATCH frame of
	// PUTs per chunk.
	loadStart := time.Now()
	if err := preload(cfg); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	loadDur := time.Since(loadStart)

	var warmupDur time.Duration
	if cfg.Warmup > 0 {
		wcfg := cfg
		wcfg.Duration, wcfg.Ops = cfg.Warmup, 0
		warmupStart := time.Now()
		if _, _, err := drive(wcfg); err != nil {
			return nil, fmt.Errorf("warmup: %w", err)
		}
		warmupDur = time.Since(warmupStart)
	}

	// Bracket exactly the measured drive with /metrics scrapes: the delta
	// is the server's view of the same window the client-side histogram
	// covers, with the preload and warmup already behind both snapshots.
	var scrapeBefore *obs.Scrape
	if cfg.AdminAddr != "" {
		var err error
		if scrapeBefore, err = scrapeMetrics(cfg.AdminAddr); err != nil {
			return nil, err
		}
	}

	results, elapsed, err := drive(cfg)
	if err != nil {
		return nil, err
	}

	var serverDelta *ServerDelta
	if scrapeBefore != nil {
		scrapeAfter, err := scrapeMetrics(cfg.AdminAddr)
		if err != nil {
			return nil, err
		}
		serverDelta = newServerDelta(scrapeBefore, scrapeAfter)
	}

	rep := &Report{
		Bench: "server", Addr: cfg.Addr, Mix: cfg.Mix.Name, Dist: cfg.DistName(),
		Conns: cfg.Conns, Pipeline: cfg.Pipeline,
		BatchMode: cfg.BatchMode,
		Loaded:    cfg.Load, Seed: cfg.Seed, Sample: cfg.SampleRate,
		WarmupS:   warmupDur.Seconds(),
		DurationS: elapsed.Seconds(),
		LoadS:     loadDur.Seconds(),
		OpCounts:  map[string]uint64{},
	}
	if s := loadDur.Seconds(); s > 0 {
		rep.LoadRate = float64(cfg.Load) / s
	}
	var hist obs.HDR
	for _, r := range results {
		rep.Ops += r.ops
		rep.Errors += r.errors
		hist.Merge(&r.hist)
		for kind, n := range r.opCounts {
			rep.OpCounts[opName(workload.OpKind(kind))] += n
		}
	}
	rep.Throughput = float64(rep.Ops) / elapsed.Seconds()
	rep.Latency = LatencyNS{
		Samples: hist.Count(),
		Mean:    hist.Mean(),
		Min:     hist.Min(),
		P50:     hist.Percentile(50),
		P95:     hist.Percentile(95),
		P99:     hist.Percentile(99),
		Max:     hist.Max(),
	}

	// Final server/store snapshot for the report.
	c, err := client.DialConn(cfg.Addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return nil, err
	}
	rep.Server = st.Server
	rep.Store = st.Store
	rep.Durability = st.Durability
	rep.Replication = st.Replication
	rep.ServerDelta = serverDelta
	return rep, nil
}

// drive runs cfg.Conns workers until the duration elapses (or each
// worker's op budget runs out) and returns their tallies.
func drive(cfg Config) ([]*workerResult, time.Duration, error) {
	results := make([]*workerResult, cfg.Conns)
	errs := make([]error, cfg.Conns)
	var stop atomic.Bool
	if cfg.Ops == 0 {
		timer := time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
		defer timer.Stop()
	}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.Conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w], errs[w] = worker(cfg, w, &stop)
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, elapsed, err
		}
	}
	return results, elapsed, nil
}

func opName(k workload.OpKind) string {
	switch k {
	case workload.OpRead:
		return "read"
	case workload.OpUpdate:
		return "update"
	case workload.OpInsert:
		return "insert"
	default:
		return "rmw"
	}
}

// preload bulk-loads keys [0, load) over cfg.Conns parallel connections.
func preload(cfg Config) error {
	const chunk = 4096
	errs := make([]error, cfg.Conns)
	harness.ParallelChunks(cfg.Load, cfg.Conns, func(w, lo, hi int) {
		c, err := client.DialConn(cfg.Addr)
		if err != nil {
			errs[w] = err
			return
		}
		defer c.Close()
		p := c.Pipeline()
		var m client.MixedBatch
		var res []client.Result
		harness.Chunks(hi-lo, chunk, func(clo, chi int) {
			if errs[w] != nil {
				return
			}
			m.Reset()
			for i := lo + clo; i < lo+chi; i++ {
				m.Put(workload.Key(cfg.Seed, uint64(i)), uint64(i))
			}
			p.Mixed(&m)
			if res, errs[w] = p.Flush(res[:0]); errs[w] != nil {
				return
			}
			for _, r := range res {
				if r.Err != nil {
					errs[w] = r.Err
					return
				}
			}
		})
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// expected tracks what one queued wire op must return for the run to be
// error-free.
type expected struct {
	read bool   // a GET whose value must equal idx
	idx  uint64 // global key index
}

// worker drives one connection until the stop flag (or its op budget) is
// reached. Each worker owns a disjoint insert range: its generator's
// fresh local indexes are strided across workers, so no worker ever reads
// a key another worker is concurrently inserting.
func worker(cfg Config, w int, stop *atomic.Bool) (*workerResult, error) {
	c, err := client.DialConn(cfg.Addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if cfg.SampleRate > 0 {
		c.SetSampling(cfg.SampleRate)
	}

	res := &workerResult{}
	gen := workload.NewYCSB(cfg.Seed+uint64(w)*0x9E3779B9, cfg.Mix, cfg.Load)
	global := func(local uint64) uint64 {
		if local < uint64(cfg.Load) {
			return local
		}
		return uint64(cfg.Load) + (local-uint64(cfg.Load))*uint64(cfg.Conns) + uint64(w)
	}

	p := c.Pipeline()
	var exp []expected
	var mixed client.MixedBatch
	queue := func(read bool, idx uint64) {
		key := workload.Key(cfg.Seed, idx)
		switch {
		case cfg.BatchMode == BatchMixed:
			if read {
				mixed.Get(key)
			} else {
				mixed.Put(key, idx)
			}
		case read:
			p.Get(key)
		default:
			p.Put(key, idx)
		}
		exp = append(exp, expected{read: read, idx: idx})
	}

	budget := cfg.Ops
	var results []client.Result
	for !stop.Load() && (cfg.Ops == 0 || budget > 0) {
		exp = exp[:0]
		for i := 0; i < cfg.Pipeline; i++ {
			op := gen.Next()
			res.opCounts[op.Kind]++
			idx := global(op.KeyIndex)
			switch op.Kind {
			case workload.OpRead:
				queue(true, idx)
			case workload.OpUpdate, workload.OpInsert:
				queue(false, idx)
			case workload.OpReadModifyWrite:
				queue(true, idx)
				queue(false, idx)
			}
		}
		if cfg.BatchMode == BatchMixed {
			// The whole round trip is one MIXEDBATCH frame: one decode,
			// one store call, one WAL record server-side.
			p.Mixed(&mixed)
			mixed.Reset()
		}

		start := time.Now()
		results, err = p.Flush(results[:0])
		if err != nil {
			return nil, fmt.Errorf("conn %d: %w", w, err)
		}
		res.hist.Record(uint64(time.Since(start).Nanoseconds()))
		res.ops += uint64(len(results))
		budget -= len(results)
		for i, r := range results {
			e := exp[i]
			switch {
			case r.Err != nil:
				res.errors++
			case e.read && (!r.Found || r.Value != e.idx):
				res.errors++
			case !e.read && !r.Found:
				res.errors++
			}
		}
	}
	return res, nil
}
