package main

// The names below are the contract with BENCHMARK.json; smoke_test.go checks
// that the two lists agree and that every run emits exactly its list.

type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports every
// one of them from the untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"mem_bytes_per_entry", "B"},
}

// bounds is, per end-to-end metric, the share of the parent's median by
// which it may worsen before a change counts as a regression.
var bounds = map[string]float64{
	"ops_per_s":           0.25,
	"setup_s":             0.25,
	"rss_peak_mb":         0.05,
	"mem_bytes_per_entry": 0.02,
}

// perLayer is what the traced run reports. The ladder metrics are measured
// on fixed structures and are the same for every workload; the counters at
// the end are taken from the named workload's own traced window and read 0
// where the workload's stack has no such layer. rtt_p50_us and rtt_p99_us
// were end-to-end metrics in the issue; no statistic of them met a bound on
// the reference host, so by the issue's own rule they are per-layer metrics
// under the same names. The two window.* metrics are what the per-slice
// quartiles leave out: the 99th percentile over every unit of the window,
// and the share of slices more than a tenth slower than the reported rate —
// stalls that hit fewer than three slices in four.
var perLayer = []metricDef{
	// Host: a fixed kernel with no repo code, run before and after.
	{"calib.loop_ns", "ns"},
	{"calib.hash_ns", "ns"},
	{"calib.memwalk_ns", "ns"},
	{"calib.drift_pct", "%"},

	// GET ladder.
	{"core.trad_leaf_ns", "ns"},
	{"core.shortcut_leaf_ns", "ns"},
	{"bucket.get_ns", "ns"},
	{"eh.get_ns", "ns"},
	{"sceh.get_ns", "ns"},
	{"sceh.get_vs_eh_ratio", "ratio"},
	{"sceh.get_fit_ns", "ns"},
	{"store.get_ns", "ns"},
	{"store.get_self_ns", "ns"},
	{"locked.get_self_ns", "ns"},
	{"sharded.get_self_ns", "ns"},
	{"durable.get_self_ns", "ns"},
	{"sharded.apply32_get_ns_per_op", "ns"},

	// PUT ladder: updates of existing keys, no structural change.
	{"bucket.put_ns", "ns"},
	{"eh.put_ns", "ns"},
	{"sceh.put_ns", "ns"},
	{"store.put_self_ns", "ns"},
	{"locked.put_self_ns", "ns"},
	{"sharded.put_self_ns", "ns"},
	{"durable.put_self_ns", "ns"},
	{"wal.append_ns_per_rec", "ns"},
	{"wal.fsync_p50_us", "us"},
	{"wal.fsync_p99_us", "us"},
	{"op.encode_ns_per_batch", "ns"},
	{"op.decode_ns_per_batch", "ns"},

	// Maintenance: one index_waves cycle with WaitSync after each burst.
	{"sceh.insert_ns", "ns"},
	{"sceh.wave_lookup_ns", "ns"},
	{"sceh.resync_ms", "ms"},
	{"sceh.remaps_per_kinsert", "count"},
	{"sceh.superseded_share", "ratio"},
	{"eh.structural_mods", "count"},

	// Serving, on an otherwise idle server.
	{"server.rtt1_us", "us"},
	{"server.rtt32_us", "us"},
	{"sharded.apply32_us", "us"},
	{"server.overhead_us", "us"},

	// Durability.
	{"recovery_s", "s"},
	{"durable.replay_rec_per_s", "1/s"},
	{"persist.snapshot_mb_per_s", "MB/s"},
	{"persist.restore_mb_per_s", "MB/s"},

	// Counters of the named workload's traced window.
	{"sceh.shortcut_share", "ratio"},
	{"locked.seqlock_share", "ratio"},
	{"locked.seqlock_retries_per_kget", "count"},
	{"locked.fallbacks", "count"},
	{"server.ops_per_batch", "count"},
	{"wal.ops_per_record", "count"},
	{"wal.records_per_sync", "count"},
	{"wal.bytes_per_put", "B"},
	{"rtt_p50_us", "us"},
	{"rtt_p99_us", "us"},
	{"window.rtt_p99_us", "us"},
	{"window.slow_slice_share", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"sys.vmas_after_setup", "count"},
	{"trace.overhead_pct", "%"},
}
