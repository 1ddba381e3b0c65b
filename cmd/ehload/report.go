package main

import (
	"fmt"
	"io"
	"time"

	"vmshortcut"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/wire"
)

// Report is the BENCH_server.json schema: one measured run. The field
// set is pinned by TestReportSchemaRoundTrip — fields may be added, but
// never silently renamed or dropped. Fields that described retired
// mechanisms ("batch_size" of the same-kind batch frames, "read_cache",
// "batch_window_adaptive", "batch_mode" of the MIXEDBATCH frame) were
// dropped with them; old reports still decode, the extra keys ignored.
type Report struct {
	Bench      string  `json:"bench"`
	Addr       string  `json:"addr"`
	Mix        string  `json:"mix"`
	Dist       string  `json:"dist"`
	Conns      int     `json:"conns"`
	Pipeline   int     `json:"pipeline"`
	Loaded     int     `json:"loaded"`
	Seed       uint64  `json:"seed"`
	DurationS  float64 `json:"duration_seconds"`
	Ops        uint64  `json:"ops"`
	Errors     uint64  `json:"errors"`
	Throughput float64 `json:"throughput_ops_per_sec"`
	LoadS      float64 `json:"load_seconds"`
	LoadRate   float64 `json:"load_ops_per_sec"`

	// Latency of one pipelined round trip (Pipeline ops per sample),
	// nanoseconds.
	Latency LatencyNS `json:"latency_ns"`

	// OpCounts is operations by YCSB kind (an RMW counts once here but
	// is two wire ops).
	OpCounts map[string]uint64 `json:"op_counts"`

	Server wire.ServerCounters `json:"server"`
	Store  vmshortcut.Stats    `json:"store"`
	// Durability is the server store's WAL state (zero without -wal-dir).
	Durability wire.DurabilityCounters `json:"durability"`
	// Replication is the server's replication section, present when the
	// served store replicates in either direction.
	Replication *wire.ReplicationStats `json:"replication,omitempty"`
	// ServerDelta is the server-side view of exactly the measured window
	// (counters and per-stage latency percentiles from /metrics scrapes
	// bracketing the drive), present when Config.AdminAddr was set.
	ServerDelta *ServerDelta `json:"server_delta,omitempty"`
}

// LatencyNS is the report's latency block, nanoseconds.
type LatencyNS struct {
	Samples uint64  `json:"samples"`
	Mean    float64 `json:"mean"`
	Min     uint64  `json:"min"`
	P50     uint64  `json:"p50"`
	P95     uint64  `json:"p95"`
	P99     uint64  `json:"p99"`
	Max     uint64  `json:"max"`
}

// WriteSummary prints the human-readable run summary, with the server's
// view of the measured window when the report carries one.
func (r *Report) WriteSummary(w io.Writer) {
	fmt.Fprintf(w, "mix %s (%s)  conns=%d pipeline=%d  loaded=%d\n",
		r.Mix, r.Dist, r.Conns, r.Pipeline, r.Loaded)
	fmt.Fprintf(w, "load: %d entries in %.2fs (%.0f ops/s)\n", r.Loaded, r.LoadS, r.LoadRate)
	fmt.Fprintf(w, "run:  %d ops in %.2fs = %.0f ops/s, %d errors\n",
		r.Ops, r.DurationS, r.Throughput, r.Errors)
	fmt.Fprintf(w, "latency per round trip (%d ops deep): p50 %s  p95 %s  p99 %s  max %s\n",
		r.Pipeline,
		time.Duration(r.Latency.P50), time.Duration(r.Latency.P95),
		time.Duration(r.Latency.P99), time.Duration(r.Latency.Max))
	fmt.Fprintf(w, "server: %d coalesced batches carrying %d ops; store batches I/L/D %d/%d/%d\n",
		r.Server.CoalescedBatches, r.Server.CoalescedOps,
		r.Store.InsertBatches, r.Store.LookupBatches, r.Store.DeleteBatches)
	if d := r.Durability; d.WALRecords > 0 {
		fmt.Fprintf(w, "durability: %d WAL records, %d fsyncs, durable LSN %d, snapshot LSN %d\n",
			d.WALRecords, d.WALSyncs, d.DurableLSN, d.SnapshotLSN)
	}
	if sd := r.ServerDelta; sd != nil {
		fmt.Fprintf(w, "server window: %d ops, %d frames, %d coalesced batches, %d rejects, %d slow\n",
			sd.Ops, sd.Frames, sd.CoalescedBatches, sd.Rejects, sd.SlowOps)
		if sd.FastpathSeqlock+sd.FastpathLocked > 0 {
			fmt.Fprintf(w, "read fastpath: seqlock %d / locked %d\n", sd.FastpathSeqlock, sd.FastpathLocked)
		}
		for s := obs.Stage(0); s < obs.NumStages; s++ {
			if sw, ok := sd.Stages[s.String()]; ok {
				fmt.Fprintf(w, "  stage %-13s count=%-9d mean %-10s p50 %-10s p99 %s\n",
					s, sw.Count, time.Duration(sw.MeanNS).Round(time.Nanosecond),
					time.Duration(sw.P50NS), time.Duration(sw.P99NS))
			}
		}
	}
}
