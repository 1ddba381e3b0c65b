// The -restart-check mode: an end-to-end crash-recovery verification.
// ehload manages the server process itself — start it, write
// acknowledged keys over two connections while it runs, kill -9 it once
// the acknowledged count reaches a point drawn from -seed while each
// connection has a batch in flight, restart it, and verify that every
// write acknowledged before the kill is present with the right value. With -fsync always on the server
// this must hold exactly; a single missing or mismatched key fails the
// check (and the CI crash-recovery job built on it).
package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
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

// checkConns is how many connections the write phase drives, each over
// its own part of the keys with one batch in flight, so that a kill can
// land with both of the WAL's sync slots open.
const checkConns = 2

// perConn holds one count per write-phase connection.
type perConn [checkConns]int64

func (v perConn) sum() (n int64) {
	for _, x := range v {
		n += x
	}
	return n
}

// connKeys returns the key indices [lo, hi) connection c writes.
func connKeys(maxKeys, c int) (lo, hi int) {
	return c * maxKeys / checkConns, (c + 1) * maxKeys / checkConns
}

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
	acked, inFlight, err := killMidRun(cfg, func() error {
		err := proc.Process.Kill()
		proc.Wait()
		return err
	})
	if err != nil {
		return err
	}
	n := acked.sum()
	fmt.Printf("restart-check: %d of %d writes acknowledged (%v per connection), server killed with SIGKILL with %d in flight (%v)\n",
		n, cfg.maxKeys, acked, inFlight.sum(), inFlight)

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
	missing, mismatched, err := verifyPhase(cfg, acked)
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

// writeProgress is what the write phase's connections share with the
// goroutine that kills the server under them. sent and acked count each
// connection's writes from the start of its key range.
type writeProgress struct {
	sent, acked [checkConns]atomic.Int64
	total       atomic.Int64 // acked, summed over the connections
	killAt      int64
	once        sync.Once
	reached     chan struct{} // closed once total reaches killAt
}

// killMidRun runs the write phase against the server at cfg.addr and
// calls kill once the acknowledged count, summed over the connections,
// reaches killPoint, while each connection goes on with its next batch.
// It returns, per connection, the writes acknowledged before the kill and
// how many were sent before it without an ack. It fails if the kill point
// is not reached within killTimeout, or if every write was acknowledged
// before the kill landed: then no batch was torn.
func killMidRun(cfg restartConfig, kill func() error) (acked, inFlight perConn, err error) {
	w := &writeProgress{killAt: killPoint(cfg.maxKeys, cfg.seed), reached: make(chan struct{})}
	var writeErrs [checkConns]error
	var wg sync.WaitGroup
	for c := range checkConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writeErrs[c] = writePhase(cfg, w, c)
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-w.reached:
	case <-done:
	case <-time.After(killTimeout):
	}
	if err := kill(); err != nil {
		return acked, inFlight, fmt.Errorf("kill -9: %w", err)
	}
	var sent perConn
	for c := range sent {
		sent[c] = w.sent[c].Load()
	}
	<-done
	for c := range acked {
		acked[c] = w.acked[c].Load()
		inFlight[c] = max(sent[c]-acked[c], 0)
	}
	writeErr := errors.Join(writeErrs[:]...)
	switch {
	case acked.sum() < w.killAt:
		return acked, perConn{}, fmt.Errorf("the kill point (%d acknowledged) was not reached within %s: %d acknowledged (write phase: %v)",
			w.killAt, killTimeout, acked.sum(), writeErr)
	case writeErr == nil:
		return acked, perConn{}, fmt.Errorf("all %d writes were acknowledged before the kill landed; raise -load", acked.sum())
	}
	return acked, inFlight, nil
}

// writePhase puts connection c's keys (connKeys, through the benchmark's
// key mapping) in order, in acknowledged batches, until its range is
// written or the connection dies under the kill. w.acked[c] counts only
// fully acknowledged batches, w.sent[c] every batch flushed; w.reached
// closes once the acknowledged total reaches w.killAt.
func writePhase(cfg restartConfig, w *writeProgress, c int) error {
	conn, err := client.DialConnRetry(cfg.addr, 15*time.Second)
	if err != nil {
		return err
	}
	defer conn.Close()
	p := conn.Pipeline()
	var res []client.Result
	first, end := connKeys(cfg.maxKeys, c)
	for lo := first; lo < end; lo += checkChunk {
		hi := min(lo+checkChunk, end)
		for i := lo; i < hi; i++ {
			p.Put(workload.Key(cfg.seed, uint64(i)), uint64(i))
		}
		w.sent[c].Store(int64(hi - first))
		if res, err = roundTrip(p, res); err != nil {
			return err // the kill landed (or the server fell over early)
		}
		w.acked[c].Store(int64(hi - first))
		if w.total.Add(int64(hi-lo)) >= w.killAt {
			w.once.Do(func() { close(w.reached) })
		}
	}
	return nil
}

// verifyPhase reads back, for each write-phase connection, the prefix of
// its keys that was acknowledged before the kill.
func verifyPhase(cfg restartConfig, acked perConn) (missing, mismatched int64, err error) {
	c, err := client.DialConnRetry(cfg.addr, 30*time.Second)
	if err != nil {
		return 0, 0, fmt.Errorf("server did not come back: %w", err)
	}
	defer c.Close()
	p := c.Pipeline()
	var res []client.Result
	for conn, n := range acked {
		first, _ := connKeys(cfg.maxKeys, conn)
		for lo := first; lo < first+int(n); lo += checkChunk {
			hi := min(lo+checkChunk, first+int(n))
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
				case r.Value != uint64(lo+j):
					mismatched++
				}
			}
		}
	}
	return missing, mismatched, nil
}
