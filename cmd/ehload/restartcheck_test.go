package main

import (
	"net"
	"strings"
	"testing"

	"vmshortcut/internal/obs"
	"vmshortcut/internal/workload"
	"vmshortcut/server"
)

func TestKillPointRange(t *testing.T) {
	const load = 200_000
	seen := map[int64]bool{}
	for seed := uint64(0); seed < 100; seed++ {
		k := killPoint(load, seed)
		if k < load/4 || k > 3*load/4 {
			t.Fatalf("seed %d: kill point %d outside [%d, %d]", seed, k, load/4, 3*load/4)
		}
		if killPoint(load, seed) != k {
			t.Fatalf("seed %d: kill point not deterministic", seed)
		}
		seen[k] = true
	}
	if len(seen) < 90 {
		t.Fatalf("100 seeds drew only %d distinct kill points", len(seen))
	}
}

// startServer serves a fresh store in-process; kill closes the server
// without draining, the in-process stand-in for SIGKILL.
func startServer(t *testing.T) (addr string, kill func() error, lookup func(uint64) (uint64, bool)) {
	t.Helper()
	store := openStore(t)
	t.Cleanup(func() { store.Close() })
	srv, err := server.New(server.Config{Store: store, Metrics: server.NewMetrics(obs.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String(), srv.Close, store.Lookup
}

// TestKillMidRunTearsTheWritePhase checks that the kill lands at the
// seeded count, before the last write, and that every write acknowledged
// before it is in the store.
func TestKillMidRunTearsTheWritePhase(t *testing.T) {
	addr, kill, lookup := startServer(t)
	cfg := restartConfig{addr: addr, maxKeys: 50_000, seed: 3}
	acked, inFlight, err := killMidRun(cfg, kill)
	if err != nil {
		t.Fatal(err)
	}
	if acked < killPoint(cfg.maxKeys, cfg.seed) || acked >= int64(cfg.maxKeys) {
		t.Fatalf("%d acknowledged: want the kill point %d or more, below %d", acked, killPoint(cfg.maxKeys, cfg.seed), cfg.maxKeys)
	}
	if inFlight < 0 || inFlight > checkChunk {
		t.Fatalf("%d in flight, want at most one batch of %d", inFlight, checkChunk)
	}
	for i := int64(0); i < acked; i++ {
		if v, ok := lookup(workload.Key(cfg.seed, uint64(i))); !ok || v != uint64(i) {
			t.Fatalf("acknowledged write %d = (%d, %v)", i, v, ok)
		}
	}
}

// TestKillMidRunFailsWhenAllWritesLand checks that a kill that does not
// stop the writer fails the check: every write is acknowledged, so the
// run tested a clean restart.
func TestKillMidRunFailsWhenAllWritesLand(t *testing.T) {
	addr, _, _ := startServer(t)
	cfg := restartConfig{addr: addr, maxKeys: 2_000, seed: 3}
	_, _, err := killMidRun(cfg, func() error { return nil })
	if err == nil || !strings.Contains(err.Error(), "before the kill landed") {
		t.Fatalf("err = %v, want a clean-finish failure", err)
	}
}
