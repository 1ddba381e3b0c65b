package main

import (
	"context"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vmshortcut"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/op"
	"vmshortcut/internal/workload"
	"vmshortcut/server"
)

// serve runs an in-process server with an admin listener over store and
// returns the serving and admin addresses. Cleanup drains the server and
// closes the store.
func serve(t *testing.T, store vmshortcut.Store) (addr, adminAddr string) {
	t.Helper()
	srv, err := server.New(server.Config{Store: store, Metrics: server.NewMetrics(obs.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	admin := httptest.NewServer(srv.AdminHandler())
	t.Cleanup(func() {
		admin.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
		<-done
		if err := store.Close(); err != nil {
			t.Error(err)
		}
	})
	return ln.Addr().String(), strings.TrimPrefix(admin.URL, "http://")
}

func openStore(t *testing.T, opts ...vmshortcut.Option) vmshortcut.Store {
	t.Helper()
	opts = append([]vmshortcut.Option{vmshortcut.WithShards(2), vmshortcut.WithConcurrency(true)}, opts...)
	store, err := vmshortcut.Open(vmshortcut.KindShortcutEH, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// runConfig is a sub-second mix-A run against addr.
func runConfig(addr, adminAddr, batchMode string) Config {
	mix, _ := workload.MixByName("A")
	return Config{
		Addr: addr, AdminAddr: adminAddr, Mix: mix, Conns: 2, Pipeline: 8,
		BatchMode: batchMode, Load: 2000, Duration: 100 * time.Millisecond, Seed: 42,
	}
}

// TestRunEndToEnd drives a 2-shard Shortcut-EH server through preload,
// the measured drive and the /metrics scrapes: once with pipelined single
// ops on a memory-only store, once with one MIXEDBATCH frame per round
// trip on a durable store, whose batches must reach the WAL.
func TestRunEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name      string
		batchMode string
		durable   bool
	}{
		{"pipelined", BatchNone, false},
		{"mixed_wal", BatchMixed, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts []vmshortcut.Option
			if tc.durable {
				opts = append(opts, vmshortcut.WithWAL(t.TempDir()), vmshortcut.WithFsync(vmshortcut.FsyncOff))
			}
			addr, adminAddr := serve(t, openStore(t, opts...))
			r, err := Run(runConfig(addr, adminAddr, tc.batchMode))
			if err != nil {
				t.Fatal(err)
			}
			if r.Ops == 0 || r.Errors != 0 || r.Throughput <= 0 {
				t.Fatalf("ops=%d errors=%d throughput=%f", r.Ops, r.Errors, r.Throughput)
			}
			if r.Latency.P50 == 0 || r.Latency.P99 < r.Latency.P50 {
				t.Fatalf("implausible latency %+v", r.Latency)
			}
			if tc.durable && r.Durability.WALRecords == 0 {
				t.Fatalf("durable run logged no WAL records: %+v", r.Durability)
			}
			sd := r.ServerDelta
			if sd == nil || sd.Ops == 0 || sd.Stages["shard_apply"].Count == 0 {
				t.Fatalf("no server-side window for the measured drive: %+v", sd)
			}
		})
	}
}

// wrongValueStore answers every GET of an odd key with the stored value
// plus one.
type wrongValueStore struct{ vmshortcut.Store }

func (s wrongValueStore) ApplyBatch(b *vmshortcut.OpBatch, res *vmshortcut.OpResults) error {
	if err := s.Store.ApplyBatch(b, res); err != nil {
		return err
	}
	for i, k := range b.Kinds() {
		if k == op.Get && res.Found[i] && b.Keys()[i]%2 == 1 {
			res.Vals[i]++
		}
	}
	return nil
}

// TestRunCountsWrongValues pins the driver's answer check: a server that
// returns a wrong value for a GET must show up in the report's errors.
func TestRunCountsWrongValues(t *testing.T) {
	addr, _ := serve(t, wrongValueStore{openStore(t)})
	r, err := Run(runConfig(addr, "", BatchNone))
	if err != nil {
		t.Fatal(err)
	}
	if r.Ops == 0 || r.Errors == 0 {
		t.Fatalf("ops=%d errors=%d: wrong GET values went uncounted", r.Ops, r.Errors)
	}
}
