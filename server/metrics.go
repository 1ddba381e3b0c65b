package server

import (
	"time"

	"vmshortcut"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/wire"
)

// Metrics is one server's observability surface: the per-stage pipeline
// histograms, per-opcode frame counters, per-kind op counters, the
// slow-op counter and its log rate limiter, plus render-time bindings
// (CounterFunc/GaugeFunc) for the server's, store's, WAL's, and
// replication's pre-existing counters. Create one per server with
// NewMetrics and pass it via Config.Metrics; the registry it wraps is
// what /metrics and /statsz render.
//
// Everything the request path touches — stage histograms, frame and op
// counters — is a pre-registered series recorded with atomic adds only:
// no allocation, no locks, no map lookups per op.
type Metrics struct {
	reg      *obs.Registry
	pipeline *obs.Pipeline

	slowOps     *obs.Counter
	slowLimiter *obs.Limiter

	// frames is indexed by wire opcode; nil entries (unknown opcodes
	// never reach the counters) are safe to Inc.
	frames [256]*obs.Counter

	// opsByKind counts applied operations by kind: gets, puts, dels.
	opsGet *obs.Counter
	opsPut *obs.Counter
	opsDel *obs.Counter
}

// frameOpNames maps request opcodes to their metric label, in the fixed
// registration (and exposition) order.
var frameOpNames = []struct {
	code byte
	name string
}{
	{wire.OpGet, "get"},
	{wire.OpPut, "put"},
	{wire.OpDel, "del"},
	{wire.OpStats, "stats"},
	{wire.OpReplSync, "repl_sync"},
	{wire.OpPromote, "promote"},
}

// NewMetrics creates the server's metric set in reg. Bindings to a
// specific server (its counters, store, and replication endpoints) are
// added when the Metrics value is passed to New via Config.Metrics.
func NewMetrics(reg *obs.Registry) *Metrics {
	m := &Metrics{reg: reg}
	m.pipeline = obs.NewPipeline(reg)
	for _, f := range frameOpNames {
		m.frames[f.code] = reg.Counter(
			`eh_frames_total{op="`+f.name+`"}`,
			"Request frames decoded, by opcode.")
	}
	m.opsGet = reg.Counter(`eh_ops_applied_total{kind="get"}`, "Operations applied, by kind.")
	m.opsPut = reg.Counter(`eh_ops_applied_total{kind="put"}`, "")
	m.opsDel = reg.Counter(`eh_ops_applied_total{kind="del"}`, "")
	m.slowOps = reg.Counter("eh_slow_ops_total",
		"Batches whose end-to-end server time exceeded the slow-op threshold.")
	// The slow-op LOG is rate-limited (5/s, burst 10, suppressed count
	// carried on the next line); the counter above is not.
	m.slowLimiter = obs.NewLimiter(5, 10)
	return m
}

// Registry returns the registry the metrics render into.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Pipeline returns the stage histogram set.
func (m *Metrics) Pipeline() *obs.Pipeline { return m.pipeline }

// countFrame bumps the per-opcode frame counter.
func (m *Metrics) countFrame(tag byte) {
	m.frames[tag].Inc() // nil-safe for unknown opcodes
}

// bindServer registers render-time bindings for s's own counters and the
// subsystems reachable from it. Called once, from New.
func (m *Metrics) bindServer(s *Server) {
	reg := m.reg
	reg.GaugeFunc("eh_conns_active", "Currently open client connections.",
		func() float64 { return float64(s.activeConns.Load()) })
	reg.CounterFunc("eh_conns_total", "Lifetime accepted connections.", s.totalConns.Load)
	reg.CounterFunc("eh_ops_total", "Operations served.", s.ops.Load)
	reg.CounterFunc("eh_frames_read_total", "Request frames decoded.", s.frames.Load)
	reg.CounterFunc("eh_coalesced_batches_total",
		"Store batch calls produced by gathering pipelined single-op frames.", s.coalescedBatches.Load)
	reg.CounterFunc("eh_coalesced_ops_total",
		"Operations carried by coalesced batches.", s.coalescedOps.Load)
	reg.CounterFunc("eh_errors_total", "StatusErr responses sent.", s.errors.Load)
	reg.CounterFunc(`eh_rejects_total{reason="read_only"}`,
		"Replica refusals, by reason.", s.readOnlyRejects.Load)
	reg.CounterFunc(`eh_rejects_total{reason="stale"}`, "", s.staleRejects.Load)
	reg.GaugeFunc("eh_ready", "1 when serving (not draining, not stale), else 0.",
		func() float64 { return boolGauge(s.Ready()) })

	// Read fast path: GET entries partitioned by how the store served
	// them. The counters live in the store (summed across shards); these
	// bindings read them at render time only.
	reg.CounterFunc(`eh_read_fastpath_total{level="seqlock"}`,
		"Pure-GET entries by serving level: seqlock-validated lock-free read, or under the read lock.",
		func() uint64 { return s.store.Stats().FastpathSeqlockReads })
	reg.CounterFunc(`eh_read_fastpath_total{level="locked"}`, "",
		func() uint64 { return s.store.Stats().FastpathLockedReads })
	reg.CounterFunc("eh_seqlock_retries_total",
		"Optimistic read passes discarded because a writer moved the sequence counter.",
		func() uint64 { return s.store.Stats().SeqlockRetries })
	reg.CounterFunc("eh_seqlock_fallbacks_total",
		"Pure-GET batches that exhausted seqlock retries and took the lock.",
		func() uint64 { return s.store.Stats().SeqlockFallbacks })

	if _, ok := vmshortcut.AsDurable(s.store); ok {
		stat := func(f func(vmshortcut.Stats) float64) func() float64 {
			return func() float64 { return f(s.store.Stats()) }
		}
		reg.CounterFunc("eh_wal_records_total", "WAL records appended.",
			func() uint64 { return s.store.Stats().WALRecords })
		reg.CounterFunc("eh_wal_syncs_total", "WAL fsync calls issued.",
			func() uint64 { return s.store.Stats().WALSyncs })
		reg.GaugeFunc("eh_wal_durable_lsn", "Highest log position known durable.",
			stat(func(st vmshortcut.Stats) float64 { return float64(st.DurableLSN) }))
		reg.GaugeFunc("eh_wal_snapshot_lsn", "Newest snapshot's covered position.",
			stat(func(st vmshortcut.Stats) float64 { return float64(st.SnapshotLSN) }))
		reg.GaugeFunc("eh_wal_segments", "Live WAL segment files.",
			stat(func(st vmshortcut.Stats) float64 { return float64(st.WALSegments) }))
		reg.GaugeFunc("eh_wal_bytes", "Total size of live WAL segments.",
			stat(func(st vmshortcut.Stats) float64 { return float64(st.WALBytes) }))
	}

	if rs := s.cfg.Repl; rs != nil {
		reg.GaugeFunc("eh_repl_followers", "Connected replication streams.",
			func() float64 { return float64(rs.Counters().Followers) })
		reg.GaugeFunc("eh_repl_sync_mode", "1 under synchronous replication.",
			func() float64 { return boolGauge(rs.Counters().SyncMode) })
		reg.GaugeFunc("eh_repl_last_lsn", "Primary log position.",
			func() float64 { return float64(rs.Counters().LastLSN) })
		reg.GaugeFunc("eh_repl_min_acked_lsn",
			"Lowest position all connected followers acknowledged.",
			func() float64 { return float64(rs.Counters().MinAckedLSN) })
		reg.CounterFunc("eh_repl_records_shipped_total", "Records streamed to followers.",
			func() uint64 { return rs.Counters().RecordsShipped })
		reg.CounterFunc("eh_repl_bytes_shipped_total", "Bytes streamed to followers.",
			func() uint64 { return rs.Counters().BytesShipped })
		reg.CounterFunc("eh_repl_snapshots_shipped_total", "Full syncs served.",
			func() uint64 { return rs.Counters().SnapshotsShipped })
		reg.CounterFunc("eh_repl_sync_timeouts_total",
			"Writes acknowledged after the sync-replication wait degraded.",
			func() uint64 { return rs.Counters().SyncTimeouts })
		reg.CounterFunc("eh_repl_unattached_acks_total",
			"Writes acknowledged under sync replication with no follower attached.",
			func() uint64 { return rs.Counters().UnattachedAcks })
		reg.GaugeFunc("eh_repl_lag_records",
			"Records the slowest connected follower has not yet acknowledged.",
			func() float64 { return float64(rs.Counters().LagRecords) })
	}

	if rp := s.cfg.Replica; rp != nil {
		reg.GaugeFunc("eh_replica_connected", "1 while attached to the primary.",
			func() float64 { return boolGauge(rp.Counters().Connected) })
		reg.GaugeFunc("eh_replica_stale", "1 while reads are refused as stale.",
			func() float64 { return boolGauge(rp.Counters().Stale) })
		reg.GaugeFunc("eh_replica_promoted", "1 after promotion to primary.",
			func() float64 { return boolGauge(rp.Counters().Promoted) })
		reg.GaugeFunc("eh_replica_applied_lsn", "Primary log position applied locally.",
			func() float64 { return float64(rp.Counters().AppliedLSN) })
		reg.GaugeFunc("eh_replica_primary_lsn", "Primary's position at last heartbeat.",
			func() float64 { return float64(rp.Counters().PrimaryLSN) })
		reg.GaugeFunc("eh_replica_last_contact_ms",
			"Milliseconds since the primary was heard from (-1: never).",
			func() float64 { return float64(rp.Counters().LastContactMS) })
		reg.CounterFunc("eh_replica_records_applied_total", "Replicated records applied.",
			func() uint64 { return rp.Counters().RecordsApplied })
		reg.CounterFunc("eh_replica_full_syncs_total", "Full snapshot syncs performed.",
			func() uint64 { return rp.Counters().FullSyncs })
		reg.CounterFunc("eh_replica_reconnects_total", "Reconnects to the primary.",
			func() uint64 { return rp.Counters().Reconnects })
		reg.GaugeFunc("eh_replica_lag_records",
			"Records known shipped by the primary but not yet applied here.",
			func() float64 { return float64(rp.Counters().LagRecords) })
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// countApplied records a finished batch's per-kind op counts (three
// atomic adds, not per-op work).
func (m *Metrics) countApplied(gets, puts, dels int) {
	if gets > 0 {
		m.opsGet.Add(uint64(gets))
	}
	if puts > 0 {
		m.opsPut.Add(uint64(puts))
	}
	if dels > 0 {
		m.opsDel.Add(uint64(dels))
	}
}

// obsStats renders the observability section of the STATS reply: stage
// summaries (only stages that have recorded), frame counts by opcode,
// and the slow-op count.
func (m *Metrics) obsStats() *wire.ObsStats {
	out := &wire.ObsStats{
		Stages:  make(map[string]wire.HistSummary),
		Frames:  make(map[string]uint64),
		SlowOps: m.slowOps.Load(),
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		h := m.pipeline.Hist(s).Snapshot()
		if h.Count() == 0 {
			continue
		}
		out.Stages[s.String()] = wire.HistSummary{
			Count:  h.Count(),
			MeanNS: h.Mean(),
			P50NS:  h.Percentile(50),
			P95NS:  h.Percentile(95),
			P99NS:  h.Percentile(99),
			MaxNS:  h.Max(),
		}
	}
	for _, f := range frameOpNames {
		if n := m.frames[f.code].Load(); n > 0 {
			out.Frames[f.name] = n
		}
	}
	return out
}

// slowOp handles one batch that crossed the slow-op threshold: count it
// always, log it rate-limited with the per-stage breakdown. The formatting
// (and its boxing of arguments) happens only after the limiter admits the
// line, so the hot path never pays for it.
func (m *Metrics) slowOp(s *Server, remote string, ops int, total time.Duration, tr *obs.Trace) {
	m.slowOps.Inc()
	if s.cfg.Logf == nil {
		return
	}
	ok, suppressed := m.slowLimiter.Allow(time.Now())
	if !ok {
		return
	}
	s.logf("server: slow op: conn=%s ops=%d total=%v [%s]%s",
		remote, ops, total, tr.Breakdown(), obs.FormatSuppressed(suppressed))
}
