// Command benchmark is the repository's benchmark: four verified workloads,
// their end-to-end metrics, and — with -trace 1 — an outside-in ladder of
// per-layer metrics. README.md describes the workloads and every metric.
//
// With -workload it runs that workload in this process and prints, as the
// last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. Without it, it runs every workload, each in
// a freshly exec'd copy of itself, and prints a table.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// logw receives everything that is not the result: the host record,
// progress and diagnostics.
var logw io.Writer = os.Stderr

type workload struct {
	name, why string
	setup     func(cfg *config) (env, error)
}

var workloads = []workload{
	{"index_lookup", "uniform hit lookups on a loaded, in-sync Shortcut-EH: the paper's mechanism alone, no wrapper, WAL or server",
		setupLookup},
	{"index_waves", "insert bursts beside lookups on a fresh Shortcut-EH: splits, doublings, remaps and fallback routing are on the clock",
		setupWaves},
	{"serve_read", "95/5 zipfian GET/PUT over loopback on two shards: server, client, codec and seqlock path do the work, the WAL none",
		func(cfg *config) (env, error) { return setupServed(cfg, false, 0.05) }},
	{"serve_durable", "50/50 zipfian GET/PUT with WAL and fsync-always, then crash-image recovery: group commit and the device dominate",
		func(cfg *config) (env, error) { return setupServed(cfg, true, 0.50) }},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// outcome is the result of one run of one workload.
type outcome struct {
	attempted, failed uint64
	metrics           map[string]float64
}

func (o *outcome) correct() bool { return o.failed == 0 }

// resultLine renders the run's result as the contract's JSON object, the
// metrics in the order of defs.
func (o *outcome) resultLine(defs []metricDef) (string, error) {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, o.correct(), o.attempted, o.failed)
	for i, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s has no finite value", d.name)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	b.WriteString("}}")
	return b.String(), nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, config{params: full})) }

// run is the command; base carries the sizes (and, in the verifier's
// self-tests, the fault to inject).
func run(args []string, stdout io.Writer, base config) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run in this process (default: all, one process each)")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 15, "length of the timed window")
	trace := fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	selfcheck := fs.Int("selfcheck", 0, "run N full untraced sets and print the largest gap per metric beside its bound")
	outDir := fs.String("out", "benchmark/out", "directory for trace files and WAL directories")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(logw, "usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-selfcheck n] [-out dir]")
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(logw, "benchmark:", err)
		return 1
	}
	h, err := preflight(*outDir)
	if err != nil {
		fmt.Fprintln(logw, "benchmark: refusing to start:", err)
		return 1
	}
	if *name == "" {
		return runAll(stdout, *seed, *seconds, *trace == 1, *selfcheck, *outDir)
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(logw, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	fmt.Fprintln(logw, "host:", h)
	cfg := &base
	cfg.seed, cfg.outDir = *seed, *outDir
	d := time.Duration(*seconds) * time.Second
	var o *outcome
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
		o, err = runTraced(cfg, h, w, d)
	} else {
		o, err = runUntraced(cfg, h, w, d)
	}
	if err != nil {
		fmt.Fprintf(logw, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	line, err := o.resultLine(defs)
	if err != nil {
		fmt.Fprintf(logw, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %16.6g %s\n", d.name, o.metrics[d.name], d.unit)
	}
	fmt.Fprintf(stdout, "%-34s %16.6g (%d of %d)\n", "failed_ops_share", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	fmt.Fprintln(stdout, line)
	if !o.correct() {
		fmt.Fprintf(logw, "benchmark: %s: %d of %d operations failed\n", w.name, o.failed, o.attempted)
		return 1
	}
	return 0
}

// setUp sets the workload up cfg.setups times, closing all but the last,
// and returns the last with every set-up time in seconds.
func setUp(cfg *config, w workload) (env, []float64, error) {
	var times []float64
	for r := 0; ; r++ {
		t := time.Now()
		e, err := w.setup(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t).Seconds())
		if r == cfg.setups-1 {
			if cfg.afterSetup != nil {
				cfg.afterSetup(e)
			}
			return e, times, nil
		}
		if err := e.close(); err != nil {
			return nil, nil, fmt.Errorf("closing set-up %d: %w", r, err)
		}
	}
}

// measured is what driving a set-up workload yields, traced or not.
type measured struct {
	win               *window
	base              *window // traced runs: the untraced half of the window
	before, after     counters
	mem               runtime.MemStats // deltas over the timed window
	attempted, failed uint64
	vmas              int
}

// measure warms the workload up, drives the timed window, and runs the
// workload's after-run checks. With a tracer the window is split: the first
// half runs untraced, as the base the traced half is compared with.
func measure(cfg *config, h host, e env, d time.Duration, tr *tracer) (*measured, error) {
	m := &measured{}
	var err error
	if m.vmas, err = vmas(); err != nil {
		return nil, err
	}
	if err := checkSetup(cfg, h, e.counters().store.DirectorySlots, m.vmas); err != nil {
		return nil, err
	}
	warm := e.drive(cfg.warmup, nil)
	if tr != nil {
		d /= 2
		m.base = e.drive(d, nil)
		warm.ops, warm.failed = warm.ops+m.base.ops, warm.failed+m.base.failed
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	m.before = e.counters()
	m.win = e.drive(d, tr)
	m.after = e.counters()
	runtime.ReadMemStats(&m1)
	m.mem.Mallocs = m1.Mallocs - m0.Mallocs
	m.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	fa, ff, err := e.finish()
	if err != nil {
		return nil, err
	}
	m.attempted = warm.ops + m.win.ops + fa
	m.failed = warm.failed + m.win.failed + ff
	return m, nil
}

func runUntraced(cfg *config, h host, w workload, d time.Duration) (*outcome, error) {
	e, setups, err := setUp(cfg, w)
	if err != nil {
		return nil, err
	}
	defer e.close()
	m, err := measure(cfg, h, e, d, nil)
	if err != nil {
		return nil, err
	}
	if err := e.close(); err != nil {
		return nil, err
	}
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	st := m.after.store
	fmt.Fprintf(logw, "%s: %d units in %d slices, unit p50 %.4g us, p99 %.4g us, set-ups %.3v s\n",
		w.name, m.win.rtt.n, len(m.win.rates), m.win.rttP50us(), m.win.rttP99us(), setups)
	return &outcome{attempted: m.attempted, failed: m.failed, metrics: map[string]float64{
		"ops_per_s":           m.win.opsPerSec(),
		"setup_s":             median(setups),
		"rss_peak_mb":         rss,
		"mem_bytes_per_entry": float64(st.Buckets*os.Getpagesize()+st.DirectorySlots*8) / float64(st.Entries),
	}}, nil
}
