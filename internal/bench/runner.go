package bench

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"vmshortcut"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/wire"
	"vmshortcut/repl"
	"vmshortcut/server"
)

// RunRecord is one measured run of one cell — the per-run JSON artifact
// written under bench_runs/<stamp>/runs/.
type RunRecord struct {
	Cell   Cell    `json:"cell"`
	Repeat int     `json:"repeat"`
	Report *Report `json:"report"`
	// Follower is the attached in-process follower's final state, present
	// only for replication cells: its applied position against the
	// primary's gives the end-of-run replication lag.
	Follower *wire.ReplicaReplCounters `json:"follower,omitempty"`
}

// ReplLagRecords is the end-of-run replication lag in WAL records, or 0
// for non-replication runs.
func (r *RunRecord) ReplLagRecords() uint64 {
	if r.Follower == nil || r.Follower.PrimaryLSN < r.Follower.AppliedLSN {
		return 0
	}
	return r.Follower.PrimaryLSN - r.Follower.AppliedLSN
}

// CellResult is one cell's complete set of repeats.
type CellResult struct {
	Cell Cell
	Runs []*RunRecord
}

// RunCell executes every repeat of one cell: each repeat gets a fresh
// in-process server (fresh store, fresh WAL directory, fresh follower
// when the cell replicates), a preload, a warmup drive, and the measured
// run — so repeats are independent samples of the same configuration.
// logf receives progress lines; nil discards them.
func RunCell(cell Cell, logf func(format string, args ...any)) (*CellResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	res := &CellResult{Cell: cell}
	for r := 0; r < cell.Repeats; r++ {
		rec, err := runRepeat(cell, r)
		if err != nil {
			return nil, err
		}
		logf("  repeat %d/%d: %.0f ops/s, p99 %s", r+1, cell.Repeats,
			rec.Report.Throughput, time.Duration(rec.Report.Latency.P99))
		res.Runs = append(res.Runs, rec)
	}
	return res, nil
}

// RunCells executes a set of cells with their repeats interleaved
// round-robin: repeat r of every cell runs before repeat r+1 of any.
// Back-to-back repeats make a cell's mean hostage to whatever multi-
// minute phase the host happens to be in while that one cell runs —
// on a shared box the phase drift dwarfs the effects the grid exists
// to measure; interleaving spreads every phase across every cell so
// cell-vs-cell comparisons stay honest. Results come back in cell
// order, shaped exactly as sequential RunCell calls would produce.
func RunCells(cells []Cell, logf func(format string, args ...any)) ([]*CellResult, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	results := make([]*CellResult, len(cells))
	maxRepeats := 0
	for i, c := range cells {
		results[i] = &CellResult{Cell: c}
		if c.Repeats > maxRepeats {
			maxRepeats = c.Repeats
		}
	}
	for r := 0; r < maxRepeats; r++ {
		for i, c := range cells {
			if r >= c.Repeats {
				continue
			}
			rec, err := runRepeat(c, r)
			if err != nil {
				return nil, err
			}
			logf("[round %d/%d] %s: %.0f ops/s, p99 %s", r+1, c.Repeats,
				c.Key, rec.Report.Throughput, time.Duration(rec.Report.Latency.P99))
			results[i].Runs = append(results[i].Runs, rec)
		}
	}
	return results, nil
}

// runRepeat runs one measured repeat of one cell, applying the cell's
// GOMAXPROCS override around just that run.
func runRepeat(cell Cell, r int) (*RunRecord, error) {
	if cell.Procs > 0 {
		prev := runtime.GOMAXPROCS(cell.Procs)
		defer runtime.GOMAXPROCS(prev)
	}
	rec, err := runOnce(cell, r)
	if err != nil {
		return nil, fmt.Errorf("cell %s repeat %d: %w", cell.Key, r, err)
	}
	return rec, nil
}

// node is one in-process server: store, listener, serving loop, the
// replication source when the store is durable, and an admin HTTP
// listener on a loopback port for the driver's /metrics scrapes.
type node struct {
	store     vmshortcut.Store
	srv       *server.Server
	source    *repl.Source
	addr      string
	adminLn   net.Listener
	adminAddr string
	done      chan error
	walDir    string
}

func startNode(cell Cell, walDir string) (*node, error) {
	// Every node carries metrics: the grid's reports embed the server-side
	// stage breakdown, and the instrumentation is allocation-free so the
	// measured numbers are the instrumented numbers — same as production.
	metrics := server.NewMetrics(obs.NewRegistry())
	opts := []vmshortcut.Option{
		vmshortcut.WithShards(cell.Shards),
		vmshortcut.WithConcurrency(true),
		vmshortcut.WithSeqlockRetryHist(metrics.Registry().Hist(
			"eh_seqlock_retry_attempts",
			"Retries needed per successful optimistic GET pass.")),
	}
	if cell.Fsync != FsyncNone {
		mode, err := vmshortcut.ParseFsyncMode(cell.Fsync)
		if err != nil {
			return nil, err
		}
		opts = append(opts, vmshortcut.WithWAL(walDir), vmshortcut.WithFsync(mode),
			vmshortcut.WithFsyncHist(metrics.Pipeline().Hist(obs.StageWALFsync)))
	}
	kind, err := vmshortcut.ParseKind(cell.Kind)
	if err != nil {
		return nil, err
	}
	store, err := vmshortcut.Open(kind, opts...)
	if err != nil {
		return nil, err
	}
	n := &node{store: store, walDir: walDir, done: make(chan error, 1)}
	scfg := server.Config{Store: store, Metrics: metrics}
	if rep, ok := vmshortcut.AsReplicable(store); ok {
		n.source = repl.NewSource(rep, repl.SourceConfig{})
		scfg.Repl = n.source
	}
	srv, err := server.New(scfg)
	if err != nil {
		store.Close()
		return nil, err
	}
	n.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		store.Close()
		return nil, err
	}
	n.addr = ln.Addr().String()
	n.adminLn, err = net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		store.Close()
		return nil, err
	}
	n.adminAddr = n.adminLn.Addr().String()
	go http.Serve(n.adminLn, srv.AdminHandler())
	go func() { n.done <- srv.Serve(ln) }()
	return n, nil
}

// stop tears the node down: drain, close the replication source, close
// the store, delete the WAL directory. The first error wins but every
// step runs.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	<-n.done
	if n.adminLn != nil {
		n.adminLn.Close()
	}
	if n.source != nil {
		n.source.Close()
	}
	if cerr := n.store.Close(); err == nil {
		err = cerr
	}
	if n.walDir != "" {
		if rerr := os.RemoveAll(n.walDir); err == nil {
			err = rerr
		}
	}
	return err
}

// runOnce runs one repeat of one cell.
func runOnce(cell Cell, repeat int) (rec *RunRecord, err error) {
	var walDir string
	if cell.Fsync != FsyncNone {
		walDir, err = os.MkdirTemp("", "ehbench-wal-*")
		if err != nil {
			return nil, err
		}
	}
	n, err := startNode(cell, walDir)
	if err != nil {
		if walDir != "" {
			os.RemoveAll(walDir)
		}
		return nil, err
	}
	defer func() {
		if serr := n.stop(); err == nil && serr != nil {
			err = serr
		}
	}()

	// A replication cell attaches an in-process follower replaying the
	// primary's WAL stream into its own store; the measured run then
	// reports the follower's applied position as lag.
	var follower *repl.Follower
	var fstore vmshortcut.Store
	if cell.Repl {
		kind, _ := vmshortcut.ParseKind(cell.Kind)
		fstore, err = vmshortcut.Open(kind, vmshortcut.WithShards(cell.Shards), vmshortcut.WithConcurrency(true))
		if err != nil {
			return nil, fmt.Errorf("follower store: %w", err)
		}
		follower, err = repl.StartFollower(repl.FollowerConfig{Primary: n.addr, Store: fstore})
		if err != nil {
			fstore.Close()
			return nil, fmt.Errorf("follower: %w", err)
		}
		defer func() {
			follower.Close()
			if cerr := fstore.Close(); err == nil {
				err = cerr
			}
		}()
		if err := waitConnected(follower, 5*time.Second); err != nil {
			return nil, err
		}
	}

	cfg, err := cell.driverConfig()
	if err != nil {
		return nil, err
	}
	cfg.Addr = n.addr
	cfg.AdminAddr = n.adminAddr
	report, err := Run(cfg)
	if err != nil {
		return nil, err
	}
	rec = &RunRecord{Cell: cell, Repeat: repeat, Report: report}
	if follower != nil {
		if ferr := follower.Err(); ferr != nil {
			return nil, fmt.Errorf("replication halted during the run: %w", ferr)
		}
		rec.Follower = follower.Counters()
	}
	return rec, nil
}

// waitConnected blocks until the follower's stream is attached, so the
// measured run never overlaps the initial sync handshake.
func waitConnected(f *repl.Follower, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if f.Counters().Connected {
			return nil
		}
		if err := f.Err(); err != nil {
			return fmt.Errorf("follower failed while attaching: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("follower did not attach within %v", timeout)
}
