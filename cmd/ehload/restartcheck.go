// The -restart-check mode: an end-to-end crash-recovery verification.
// ehload manages the server process itself — start it, write
// acknowledged keys while it runs, kill -9 it once the acknowledged count
// reaches a point drawn from -seed while the next batch is in flight,
// restart it, and verify that every write acknowledged before the kill
// is present with the right value. With -fsync always on the server
// this must hold exactly; a single missing or mismatched key fails the
// check (and the CI crash-recovery job built on it).
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
	maxKeys   int    // stop writing after this many acknowledged keys
	seed      uint64 // key derivation and kill point seed (same key scheme as the benchmark)
}

// checkChunk is how many requests the write and verify loops pipeline
// per round trip.
const checkChunk = 128

// killTimeout bounds how long a check waits for its kill point.
const killTimeout = time.Minute

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
	// kill -9: no drain, no final fsync — only what the WAL policy made
	// durable survives.
	n, inFlight, err := killMidRun(cfg, func() error {
		err := proc.Process.Kill()
		proc.Wait()
		return err
	})
	if err != nil {
		return err
	}
	fmt.Printf("restart-check: %d of %d writes acknowledged, server killed with SIGKILL with %d in flight\n",
		n, cfg.maxKeys, inFlight)

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

// killPoint draws the acknowledged count at which a check kills the
// server: uniform over [load/4, 3·load/4] for a given seed.
func killPoint(load int, seed uint64) int64 {
	return int64(load/4 + workload.NewRNG(seed).Intn(load/2+1))
}

// writeProgress is what writePhase shares with the goroutine that kills
// the server under it.
type writeProgress struct {
	sent, acked atomic.Int64
	killAt      int64
	reached     chan struct{} // closed once acked reaches killAt
}

// killMidRun runs writePhase against the server at cfg.addr and calls
// kill once the acknowledged count reaches killPoint, while the writer
// goes on with its next batch. It returns the writes acknowledged before
// the kill, and how many were sent before it without an ack. It fails if
// the kill point is not reached within killTimeout, or if every write
// was acknowledged before the kill landed: then no batch was torn.
func killMidRun(cfg restartConfig, kill func() error) (acked, inFlight int64, err error) {
	w := &writeProgress{killAt: killPoint(cfg.maxKeys, cfg.seed), reached: make(chan struct{})}
	var writeErr error
	done := make(chan struct{})
	go func() {
		writeErr = writePhase(cfg, w)
		close(done)
	}()
	select {
	case <-w.reached:
	case <-done:
	case <-time.After(killTimeout):
	}
	if err := kill(); err != nil {
		return 0, 0, fmt.Errorf("kill -9: %w", err)
	}
	sent := w.sent.Load()
	<-done
	acked = w.acked.Load()
	switch {
	case acked < w.killAt:
		return acked, 0, fmt.Errorf("the kill point (%d acknowledged) was not reached within %s: %d acknowledged (write phase: %v)",
			w.killAt, killTimeout, acked, writeErr)
	case writeErr == nil:
		return acked, 0, fmt.Errorf("all %d writes were acknowledged before the kill landed; raise -load", acked)
	}
	return acked, max(sent-acked, 0), nil
}

// writePhase puts keys 0,1,2,... (through the benchmark's key mapping)
// in acknowledged batches until maxKeys or the connection dies under the
// kill. w.acked counts only fully acknowledged batches, w.sent every
// batch flushed; w.reached closes once w.acked reaches w.killAt.
func writePhase(cfg restartConfig, w *writeProgress) error {
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
		w.sent.Store(int64(hi))
		if res, err = roundTrip(p, res); err != nil {
			return err // the kill landed (or the server fell over early)
		}
		w.acked.Store(int64(hi))
		if lo < int(w.killAt) && hi >= int(w.killAt) {
			close(w.reached)
		}
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
