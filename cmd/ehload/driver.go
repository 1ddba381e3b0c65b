package main

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

// Config shapes one measured run against a serving address.
type Config struct {
	Addr     string
	Mix      workload.Mix
	Conns    int
	Pipeline int
	Load     int // keyspace entries preloaded before the measured run
	Duration time.Duration
	Seed     uint64
	// AdminAddr is the server's admin HTTP address. When set, the driver
	// scrapes /metrics immediately before and after the measured drive and
	// reports the server-side window delta (counters and per-stage latency
	// percentiles) alongside the client-side numbers.
	AdminAddr string
}

// workerResult is one connection's tally.
type workerResult struct {
	ops      uint64
	errors   uint64
	opCounts [4]uint64 // by workload.OpKind
	hist     obs.HDR
}

// Run executes one benchmark: preload, then the measured drive,
// finishing with a server/store stats snapshot.
func Run(cfg Config) (*Report, error) {
	// Preload [0, load) across the connections, one pipelined run of PUTs
	// per chunk.
	loadStart := time.Now()
	if err := preload(cfg); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	loadDur := time.Since(loadStart)

	// Bracket exactly the measured drive with /metrics scrapes: the delta
	// is the server's view of the same window the client-side histogram
	// covers, with the preload already behind both snapshots.
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

	dist := "uniform"
	if cfg.Mix.Zipf {
		dist = "zipfian"
	}
	rep := &Report{
		Bench: "server", Addr: cfg.Addr, Mix: cfg.Mix.Name, Dist: dist,
		Conns: cfg.Conns, Pipeline: cfg.Pipeline,
		Loaded: cfg.Load, Seed: cfg.Seed,
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

// drive runs cfg.Conns workers until the duration elapses and returns
// their tallies.
func drive(cfg Config) ([]*workerResult, time.Duration, error) {
	results := make([]*workerResult, cfg.Conns)
	errs := make([]error, cfg.Conns)
	var stop atomic.Bool
	timer := time.AfterFunc(cfg.Duration, func() { stop.Store(true) })
	defer timer.Stop()
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
// Each chunk is one Flush, which the server gathers into few ApplyBatch
// calls of up to 1024 PUTs.
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
		var res []client.Result
		harness.Chunks(hi-lo, chunk, func(clo, chi int) {
			if errs[w] != nil {
				return
			}
			for i := lo + clo; i < lo+chi; i++ {
				p.Put(workload.Key(cfg.Seed, uint64(i)), uint64(i))
			}
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

// worker drives one connection until the stop flag is set. Each worker
// owns a disjoint insert range: its generator's fresh local indexes are
// strided across workers, so no worker ever reads a key another worker is
// concurrently inserting.
func worker(cfg Config, w int, stop *atomic.Bool) (*workerResult, error) {
	c, err := client.DialConn(cfg.Addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()

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
	queue := func(read bool, idx uint64) {
		key := workload.Key(cfg.Seed, idx)
		if read {
			p.Get(key)
		} else {
			p.Put(key, idx)
		}
		exp = append(exp, expected{read: read, idx: idx})
	}

	var results []client.Result
	for !stop.Load() {
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

		start := time.Now()
		results, err = p.Flush(results[:0])
		if err != nil {
			return nil, fmt.Errorf("conn %d: %w", w, err)
		}
		res.hist.Record(uint64(time.Since(start).Nanoseconds()))
		res.ops += uint64(len(results))
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
