// The -failover-check mode: an end-to-end replication-failover
// verification, the replication analogue of -restart-check. ehload
// manages both processes itself — start a primary (which must run
// synchronous replication) and a follower, wait until the follower is
// attached, write acknowledged keys against the primary, kill -9 the
// primary at a seeded acknowledged count with the next batch in flight
// (as -restart-check does), promote the follower over the wire, and
// verify that every write acknowledged before the kill is present on the
// new primary with the right value. A single missing or mismatched key
// fails the check (and the CI replication-smoke job built on it).
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"vmshortcut/client"
)

// failoverConfig parameterizes one failover check.
type failoverConfig struct {
	primaryAddr  string
	followerAddr string
	primaryCmd   string
	followerCmd  string
	maxKeys      int // stop writing after this many acknowledged keys
	seed         uint64
	out          string // JSON report path ("" = none)
}

// failoverReport is the -out JSON schema of a failover check.
type failoverReport struct {
	Bench      string  `json:"bench"` // "failover-check"
	Acked      int64   `json:"acked_writes"`
	InFlight   int64   `json:"in_flight_writes"`
	Missing    int64   `json:"missing"`
	Mismatched int64   `json:"mismatched"`
	PromoteS   float64 `json:"promote_seconds"`
	VerifyS    float64 `json:"verify_seconds"`
	OK         bool    `json:"ok"`
}

func runFailoverCheck(cfg failoverConfig) error {
	switch {
	case cfg.primaryCmd == "" || cfg.followerCmd == "":
		return errors.New("-primary-cmd and -follower-cmd are both required")
	case !strings.Contains(cfg.primaryCmd, "-wal-dir"):
		return errors.New("-primary-cmd must include -wal-dir: replication ships the write-ahead log")
	case !strings.Contains(cfg.primaryCmd, "-repl-sync"):
		// Without synchronous replication an acknowledged write may not
		// have reached the follower when the kill lands, and "no acked
		// write lost" is not a claim the check can make.
		return errors.New("-primary-cmd must include -repl-sync: only synchronous replication guarantees acknowledged writes survive failover")
	case !strings.Contains(cfg.followerCmd, "-replica-of"):
		return errors.New("-follower-cmd must include -replica-of: the follower must replicate from the primary")
	case strings.ContainsAny(cfg.primaryCmd+cfg.followerCmd, `"'`):
		return errors.New("command lines are split on whitespace and do not support quoting; use paths without spaces")
	case cfg.maxKeys <= 0:
		return errors.New("-load must be positive (it caps the written keyspace)")
	}

	start := func(cmdline string) (*exec.Cmd, error) {
		parts := strings.Fields(cmdline)
		cmd := exec.Command(parts[0], parts[1:]...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting %s: %w", parts[0], err)
		}
		return cmd, nil
	}

	primary, err := start(cfg.primaryCmd)
	if err != nil {
		return err
	}
	primaryDown := false
	defer func() {
		if !primaryDown {
			primary.Process.Kill()
			primary.Wait()
		}
	}()
	follower, err := start(cfg.followerCmd)
	if err != nil {
		return err
	}
	defer func() {
		follower.Process.Signal(syscall.SIGTERM)
		follower.Wait()
	}()

	// Soundness gate: until the follower is attached, the primary
	// acknowledges in degraded (unreplicated) mode and those writes carry
	// no failover guarantee — so nothing is written before this.
	if err := waitFollowerAttached(cfg.primaryAddr); err != nil {
		return err
	}
	fmt.Println("failover-check: follower attached; starting the write phase")

	// kill -9 the primary: no drain, no goodbye to the follower.
	acked, inFlight, err := killMidRun(restartConfig{addr: cfg.primaryAddr, maxKeys: cfg.maxKeys, seed: cfg.seed}, func() error {
		err := primary.Process.Kill()
		primary.Wait()
		primaryDown = true
		return err
	})
	if err != nil {
		return err
	}
	n := acked.sum()
	fmt.Printf("failover-check: %d of %d writes acknowledged (%v per connection), primary killed with SIGKILL with %d in flight (%v)\n",
		n, cfg.maxKeys, acked, inFlight.sum(), inFlight)

	// Promote the follower over the wire — the same PROMOTE frame any
	// operator tooling would send.
	promoteStart := time.Now()
	fc, err := client.DialConnRetry(cfg.followerAddr, 15*time.Second)
	if err != nil {
		return fmt.Errorf("dialing follower: %w", err)
	}
	if err := fc.Promote(); err != nil {
		fc.Close()
		return fmt.Errorf("promote: %w", err)
	}
	fc.Close()
	promoteDur := time.Since(promoteStart)
	fmt.Printf("failover-check: follower promoted in %s\n", promoteDur.Round(time.Millisecond))

	verifyStart := time.Now()
	missing, mismatched, err := verifyPhase(restartConfig{addr: cfg.followerAddr, maxKeys: cfg.maxKeys, seed: cfg.seed}, acked)
	if err != nil {
		return err
	}
	verifyDur := time.Since(verifyStart)
	fmt.Printf("failover-check: verified %d acknowledged writes on the new primary: %d missing, %d mismatched\n",
		n, missing, mismatched)

	// The new primary must also take writes now.
	fc2, err := client.DialConnRetry(cfg.followerAddr, 15*time.Second)
	if err != nil {
		return err
	}
	werr := fc2.Put(^uint64(0), 1)
	fc2.Close()
	if werr != nil {
		return fmt.Errorf("post-promote write refused: %w", werr)
	}

	if cfg.out != "" {
		rep := failoverReport{
			Bench: "failover-check", Acked: n, InFlight: inFlight.sum(),
			Missing: missing, Mismatched: mismatched,
			PromoteS: promoteDur.Seconds(), VerifyS: verifyDur.Seconds(),
			OK: missing+mismatched == 0,
		}
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", cfg.out)
	}
	if missing+mismatched > 0 {
		return fmt.Errorf("%d acknowledged writes lost in failover (%d missing, %d wrong value)", missing+mismatched, missing, mismatched)
	}
	fmt.Println("failover-check: OK — no acknowledged write was lost")
	return nil
}

// waitFollowerAttached polls the primary's STATS until its replication
// source reports a connected follower.
func waitFollowerAttached(addr string) error {
	c, err := client.DialConnRetry(addr, 15*time.Second)
	if err != nil {
		return fmt.Errorf("dialing primary: %w", err)
	}
	defer c.Close()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := c.Stats()
		if err != nil {
			return fmt.Errorf("primary stats: %w", err)
		}
		if st.Replication != nil && st.Replication.Primary != nil && st.Replication.Primary.Followers >= 1 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("follower never attached to the primary (is -replica-of pointing at the right address?)")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
