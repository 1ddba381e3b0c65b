package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// runTraced is the traced run: the calibration kernel, the ladder, then the
// named workload — half its window untraced, half traced, in one process, so
// that their difference is the tracing overhead — and the kernel again.
func runTraced(cfg *config, h host, w workload, d time.Duration) (*outcome, error) {
	tr := newTracer()
	l := &ladder{cfg: cfg, tr: tr, out: map[string]float64{},
		stream: uniformStream(cfg.seed^0x40, 2*cfg.rungChunks*chunkOps)}
	// The calibrations bracket the workload. The ladder runs between the
	// walk's initialisation and the first of them, so that both find the
	// walk's memory equally cold; the ladder needs only the loop's cost.
	walk := newMemwalk(cfg.seed)
	l.root = tr.begin("ladder", -1)
	l.loop = l.loopRung("for the ladder")
	if err := l.run(); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	tr.end(l.root)
	l.root = tr.begin("calibration before", -1)
	before := l.calibrate(walk, "before")
	tr.end(l.root)

	e, err := w.setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer e.close()
	m, err := measure(cfg, h, e, d, tr)
	if err != nil {
		return nil, err
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	l.root = tr.begin("calibration after", -1)
	after := l.calibrate(walk, "after")
	tr.end(l.root)
	if err := tr.write(filepath.Join(cfg.outDir, "trace.json")); err != nil {
		return nil, err
	}

	out := l.out
	out["calib.loop_ns"], out["calib.hash_ns"], out["calib.memwalk_ns"] = before.loop, before.hash, before.memwalk
	out["calib.drift_pct"] = drift(before, after)

	a, b := m.after.store, m.before.store
	gets := (a.FastpathCacheReads - b.FastpathCacheReads) + (a.FastpathSeqlockReads - b.FastpathSeqlockReads) +
		(a.FastpathLockedReads - b.FastpathLockedReads)
	records := a.WALRecords - b.WALRecords
	traced, untraced := m.win.opsPerSec(), m.base.opsPerSec()
	out["sceh.shortcut_share"] = ratio(a.ShortcutLookups-b.ShortcutLookups,
		a.ShortcutLookups-b.ShortcutLookups+a.TraditionalLookups-b.TraditionalLookups)
	out["locked.seqlock_share"] = ratio(a.FastpathSeqlockReads-b.FastpathSeqlockReads, gets)
	out["locked.seqlock_retries_per_kget"] = 1e3 * ratio(a.SeqlockRetries-b.SeqlockRetries, gets)
	out["locked.fallbacks"] = float64(a.SeqlockFallbacks - b.SeqlockFallbacks)
	out["server.ops_per_batch"] = ratio(m.after.coalescedOps-m.before.coalescedOps, m.after.coalescedBatches-m.before.coalescedBatches)
	out["wal.ops_per_record"] = ratio(m.win.ops, records)
	out["wal.records_per_sync"] = ratio(records, a.WALSyncs-b.WALSyncs)
	out["wal.bytes_per_put"] = ratio(uint64(a.WALBytes-b.WALBytes), m.win.puts)
	out["rtt_p50_us"], out["rtt_p99_us"] = m.win.rttP50us(), m.win.rttP99us()
	out["window.rtt_p99_us"] = m.win.rtt.quantile(0.99) / 1e3
	slow := 0
	for _, r := range m.win.rates {
		if r < 0.9*traced {
			slow++
		}
	}
	out["window.slow_slice_share"] = float64(slow) / float64(len(m.win.rates))
	out["runtime.allocs_per_op"] = ratio(m.mem.Mallocs, m.win.ops)
	out["runtime.gc_pause_ms"] = float64(m.mem.PauseTotalNs) / 1e6
	out["sys.vmas_after_setup"] = float64(m.vmas)
	out["trace.overhead_pct"] = (untraced - traced) / untraced * 100

	o := &outcome{attempted: m.attempted + l.ops, failed: m.failed + l.failed, metrics: out}
	if out["calib.drift_pct"] > 10 {
		fmt.Fprintf(logw, "%s: noisy: the calibration kernel drifted %.1f %% over the run\n", w.name, out["calib.drift_pct"])
	}
	fmt.Fprintf(logw, "%s: calibration before %.4v, after %.4v\n", w.name, before, after)
	fmt.Fprintf(logw, "%s: untraced %.0f ops/s, traced %.0f ops/s, %d spans\n", w.name, untraced, traced, len(tr.spans))
	return o, nil
}
