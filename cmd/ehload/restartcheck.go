// The -restart-check mode: an end-to-end crash-recovery verification.
// ehload manages the server process itself — start it, write
// acknowledged keys while it runs, kill -9 mid-run, restart it, and
// verify that every write acknowledged before the kill is present with
// the right value. With -fsync always on the server this must hold
// exactly; a single missing or mismatched key fails the check (and the
// CI crash-recovery job built on it).
package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"vmshortcut/client"
	"vmshortcut/internal/workload"
)

// restartConfig parameterizes one restart check.
type restartConfig struct {
	addr      string
	serverCmd string
	maxKeys   int           // stop writing after this many acknowledged keys
	duration  time.Duration // kill the server this long into the write phase
	seed      uint64        // key derivation seed (same scheme as the benchmark)
}

// checkChunk is how many requests the write and verify loops pipeline
// per round trip.
const checkChunk = 128

// roundTrip flushes the requests queued on p and returns their results.
// Any server error fails the whole chunk: acknowledged counts only ever
// cover chunks whose every write was acknowledged.
func roundTrip(p *client.Pipeline, res []client.Result) ([]client.Result, error) {
	res, err := p.Flush(res[:0])
	if err != nil {
		return res, err
	}
	for _, r := range res {
		if r.Err != nil {
			return res, r.Err
		}
	}
	return res, nil
}

func runRestartCheck(cfg restartConfig) error {
	if cfg.serverCmd == "" {
		return errors.New("-server-cmd is required")
	}
	if !strings.Contains(cfg.serverCmd, "-wal-dir") {
		return errors.New("-server-cmd must include -wal-dir: without a WAL there is nothing to recover")
	}
	if cfg.maxKeys <= 0 {
		return errors.New("-load must be positive (it caps the written keyspace)")
	}
	if cfg.duration <= 0 {
		return errors.New("-duration must be positive (it sets the kill point)")
	}
	// The command is split on whitespace with no shell-style quoting:
	// quoted arguments would reach the server as literal quote characters
	// and fail in confusing ways (e.g. a directory named `"/var`), so
	// reject them up front.
	if strings.ContainsAny(cfg.serverCmd, `"'`) {
		return errors.New("-server-cmd is split on whitespace and does not support quoting; use paths without spaces")
	}
	parts := strings.Fields(cfg.serverCmd)
	start := func() (*exec.Cmd, error) {
		cmd := exec.Command(parts[0], parts[1:]...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting server: %w", err)
		}
		return cmd, nil
	}

	// Phase 1: bring the server up and write until the kill lands.
	proc, err := start()
	if err != nil {
		return err
	}
	var acked atomic.Int64
	writeErr := make(chan error, 1)
	go func() { writeErr <- writePhase(cfg, &acked) }()

	time.Sleep(cfg.duration)
	// kill -9: no drain, no final fsync — only what the WAL policy made
	// durable survives.
	if err := proc.Process.Kill(); err != nil {
		return fmt.Errorf("kill -9: %w", err)
	}
	proc.Wait()
	// The writer either errored out when the connection died (expected)
	// or had already written every key; both are fine.
	if err := <-writeErr; err != nil && acked.Load() == 0 {
		return fmt.Errorf("no writes acknowledged before the kill: %w", err)
	}
	n := acked.Load()
	fmt.Printf("restart-check: %d writes acknowledged, server killed with SIGKILL\n", n)
	if n == 0 {
		return errors.New("the write phase acknowledged nothing; increase -duration")
	}

	// Phase 2: restart and verify. Dial success implies recovery is
	// complete — the durable server only listens after replaying.
	proc2, err := start()
	if err != nil {
		return err
	}
	defer func() {
		proc2.Process.Signal(syscall.SIGTERM)
		proc2.Wait()
	}()
	missing, mismatched, err := verifyPhase(cfg, n)
	if err != nil {
		return err
	}
	fmt.Printf("restart-check: verified %d acknowledged writes after restart: %d missing, %d mismatched\n",
		n, missing, mismatched)
	if missing+mismatched > 0 {
		return fmt.Errorf("%d acknowledged writes lost (%d missing, %d wrong value)", missing+mismatched, missing, mismatched)
	}
	fmt.Println("restart-check: OK — no acknowledged write was lost")
	return nil
}

// writePhase puts keys 0,1,2,... (through the benchmark's key mapping)
// in acknowledged batches until maxKeys or the connection dies under the
// kill. acked counts only fully acknowledged batches.
func writePhase(cfg restartConfig, acked *atomic.Int64) error {
	c, err := client.DialConnRetry(cfg.addr, 15*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	p := c.Pipeline()
	var res []client.Result
	for lo := 0; lo < cfg.maxKeys; lo += checkChunk {
		hi := lo + checkChunk
		if hi > cfg.maxKeys {
			hi = cfg.maxKeys
		}
		for i := lo; i < hi; i++ {
			p.Put(workload.Key(cfg.seed, uint64(i)), uint64(i))
		}
		if res, err = roundTrip(p, res); err != nil {
			return err // the kill landed (or the server fell over early)
		}
		acked.Store(int64(hi))
	}
	return nil
}

// verifyPhase reads back every acknowledged key after the restart.
func verifyPhase(cfg restartConfig, n int64) (missing, mismatched int64, err error) {
	c, err := client.DialConnRetry(cfg.addr, 30*time.Second)
	if err != nil {
		return 0, 0, fmt.Errorf("server did not come back: %w", err)
	}
	defer c.Close()
	p := c.Pipeline()
	var res []client.Result
	for lo := int64(0); lo < n; lo += checkChunk {
		hi := lo + checkChunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			p.Get(workload.Key(cfg.seed, uint64(i)))
		}
		if res, err = roundTrip(p, res); err != nil {
			return missing, mismatched, fmt.Errorf("verify read: %w", err)
		}
		for j, r := range res {
			switch {
			case !r.Found:
				missing++
			case r.Value != uint64(lo)+uint64(j):
				mismatched++
			}
		}
	}
	return missing, mismatched, nil
}
