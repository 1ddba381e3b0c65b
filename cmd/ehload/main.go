// Command ehload is the YCSB-style load generator for ehserver: it
// preloads a keyspace, then drives one of the standard operation mixes
// (A/B/C/D/F, zipfian or uniform) over N client connections with deep
// pipelining, verifying every response, and reports throughput plus an
// HDR latency histogram (p50/p95/p99) both on stdout and as
// BENCH_server.json. With -admin-addr the report and the summary also
// carry the server's own view of the measured window.
//
// Latency is recorded per pipelined round trip: one Flush of -pipeline
// operations is one sample, which is the unit of work the protocol (and
// the server's coalescer) is built around. Set -pipeline 1 for per-op
// round-trip latency.
//
// Every response is verified (values must equal the key's index; reads
// must hit); any mismatch, protocol error, or transport error counts in
// "errors" and makes ehload exit non-zero — the CI smoke test relies on
// this.
//
// With -restart-check, ehload is a crash-recovery verifier instead of a
// benchmark: it starts the server itself (-server-cmd, which must point
// at a WAL directory), writes acknowledged keys, kills the server with
// SIGKILL mid-run, restarts it, and fails unless every acknowledged
// write survived.
//
// With -failover-check, it verifies replication failover the same way:
// it starts a primary (-primary-cmd, which must run -repl-sync) and a
// follower (-follower-cmd), waits for the follower to attach, writes
// acknowledged keys, kills the primary with SIGKILL mid-run, promotes
// the follower over the wire, and fails unless every acknowledged write
// is on the new primary.
//
// Usage:
//
//	ehload -addr :6380 -mix A -conns 4 -pipeline 32 -load 100000 -duration 10s
//	ehload -mix C -dist uniform -out BENCH_server.json
//	ehload -mix F -batch mixed -duration 5s   # one MIXEDBATCH frame per round trip
//	ehload -restart-check -addr 127.0.0.1:16390 -load 200000 -duration 2s \
//	       -server-cmd "ehserver -addr 127.0.0.1:16390 -kind eh -wal-dir /tmp/wal -fsync always"
//	ehload -failover-check -addr 127.0.0.1:16395 -follower-addr 127.0.0.1:16396 \
//	       -load 200000 -duration 2s \
//	       -primary-cmd "ehserver -addr 127.0.0.1:16395 -kind eh -wal-dir /tmp/p -repl-sync" \
//	       -follower-cmd "ehserver -addr 127.0.0.1:16396 -kind eh -wal-dir /tmp/f -replica-of 127.0.0.1:16395"
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"vmshortcut/internal/workload"
)

func main() {
	addr := flag.String("addr", "localhost:6380", "server address")
	mixName := flag.String("mix", "A", "YCSB mix: A (50/50 r/u) | B (95/5) | C (read-only) | D (95/5 r/insert) | F (50/50 r/rmw)")
	dist := flag.String("dist", "", "request distribution override: zipfian | uniform (default: the mix's own)")
	conns := flag.Int("conns", 4, "client connections, one worker goroutine each")
	pipeline := flag.Int("pipeline", 32, "operations in flight per connection round trip")
	batch := flag.String("batch", "0", "'mixed' submits each round trip as one MIXEDBATCH frame; 0 = pipelined single-op frames")
	load := flag.Int("load", 100_000, "keyspace entries preloaded before the measured run")
	duration := flag.Duration("duration", 10*time.Second, "measured run length")
	seed := flag.Uint64("seed", 42, "keyspace and workload seed")
	out := flag.String("out", "BENCH_server.json", "benchmark JSON output path (empty = none)")
	adminAddr := flag.String("admin-addr", "", "server admin HTTP address (its -admin flag); scrapes /metrics around the measured run and embeds the server-side stage breakdown in the report")
	restartCheck := flag.Bool("restart-check", false, "crash-recovery verification instead of a benchmark: start the server (-server-cmd), write acknowledged keys, kill -9 mid-run, restart, verify nothing acknowledged was lost")
	serverCmd := flag.String("server-cmd", "", "server command line managed by -restart-check; must include -wal-dir (split on whitespace, no shell quoting)")
	failoverCheck := flag.Bool("failover-check", false, "replication-failover verification instead of a benchmark: start a primary (-primary-cmd, which must run -repl-sync) and a follower (-follower-cmd), write acknowledged keys, kill -9 the primary mid-run, promote the follower, verify nothing acknowledged was lost")
	primaryCmd := flag.String("primary-cmd", "", "primary command line managed by -failover-check; must include -wal-dir and -repl-sync (split on whitespace, no shell quoting)")
	followerCmd := flag.String("follower-cmd", "", "follower command line managed by -failover-check; must include -replica-of")
	followerAddr := flag.String("follower-addr", "", "follower server address for -failover-check (the primary's is -addr)")
	flag.Parse()

	if *restartCheck {
		if err := runRestartCheck(restartConfig{
			addr: *addr, serverCmd: *serverCmd,
			maxKeys: *load, duration: *duration, seed: *seed,
		}); err != nil {
			log.Fatalf("restart-check: %v", err)
		}
		return
	}
	if *failoverCheck {
		if *followerAddr == "" {
			usageError("-failover-check requires -follower-addr")
		}
		if err := runFailoverCheck(failoverConfig{
			primaryAddr: *addr, followerAddr: *followerAddr,
			primaryCmd: *primaryCmd, followerCmd: *followerCmd,
			maxKeys: *load, duration: *duration, seed: *seed, out: *out,
		}); err != nil {
			log.Fatalf("failover-check: %v", err)
		}
		return
	}

	mix, ok := workload.MixByName(*mixName)
	if !ok {
		usageError("unknown mix %q (want A, B, C, D, or F)", *mixName)
	}
	switch strings.ToLower(*dist) {
	case "":
	case "zipfian", "zipf":
		mix.Zipf = true
	case "uniform":
		mix.Zipf = false
	default:
		usageError("unknown distribution %q (want zipfian or uniform)", *dist)
	}
	if *load <= 0 {
		usageError("-load must be positive: reads need a non-empty keyspace")
	}
	if *conns <= 0 || *pipeline <= 0 {
		usageError("-conns and -pipeline must be positive")
	}
	if *duration <= 0 {
		usageError("-duration must be positive")
	}
	batchMode := BatchNone
	switch strings.ToLower(*batch) {
	case "", "0", BatchNone:
	case BatchMixed:
		batchMode = BatchMixed
	default:
		usageError("-batch must be 'mixed' or 0, got %q", *batch)
	}
	cfg := Config{
		Addr: *addr, Mix: mix, Conns: *conns,
		Pipeline: *pipeline, BatchMode: batchMode, Load: *load,
		Duration: *duration, Seed: *seed,
		AdminAddr: *adminAddr,
	}

	report, err := Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	report.WriteSummary(os.Stdout)
	if *out != "" {
		blob, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if report.Errors > 0 {
		log.Fatalf("%d errors during the run", report.Errors)
	}
}

// usageError reports a flag-validation failure the way the flag package
// does: the message, then the usage text, then exit code 2 — so scripts
// can tell "you invoked me wrong" from a failed run (exit 1).
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ehload: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
