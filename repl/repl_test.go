// End-to-end replication tests: real TCP servers, real stores, real WAL
// directories — primary and replica in one process so the failover test
// can run under the race detector.
package repl_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vmshortcut"
	"vmshortcut/client"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/op"
	"vmshortcut/internal/wire"
	"vmshortcut/repl"
	"vmshortcut/server"
	"vmshortcut/wal"
)

// node is one served store: a primary or a replica, with its replication
// halves attached.
type node struct {
	store    vmshortcut.Store
	srv      *server.Server
	source   *repl.Source
	follower *repl.Follower
	metrics  *server.Metrics
	addr     string
	dir      string
	dead     atomic.Bool // set by kill: no byte leaves the node after it
}

// deadListener hands out connections whose Writes fail once dead is set,
// so an in-process node dies the way a kill -9'd process does: at the kill
// instant every outbound byte stops, on every connection at once, however
// the teardown that follows orders its closes.
type deadListener struct {
	net.Listener
	dead *atomic.Bool
}

func (l deadListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return deadConn{c, l.dead}, nil
}

type deadConn struct {
	net.Conn
	dead *atomic.Bool
}

func (c deadConn) Write(p []byte) (int, error) {
	if c.dead.Load() {
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// startNode opens a store and serves it on a loopback port. dir != ""
// makes it durable; primaryOf wires a Source (with syncMode); replicaOf
// wires a Follower. Heartbeats are fast so staleness tests stay quick.
func startNode(t *testing.T, dir string, syncMode bool, replicaOf string, fcfg repl.FollowerConfig, storeOpts ...vmshortcut.Option) *node {
	t.Helper()
	metrics := server.NewMetrics(obs.NewRegistry())
	opts := append([]vmshortcut.Option{vmshortcut.WithConcurrency(true)}, storeOpts...)
	if dir != "" {
		opts = append(opts, vmshortcut.WithWAL(dir), vmshortcut.WithFsync(vmshortcut.FsyncOff))
	}
	st, err := vmshortcut.Open(vmshortcut.KindEH, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	n := &node{store: st, metrics: metrics, dir: dir}
	cfg := server.Config{Store: st, Logf: t.Logf, Metrics: metrics}
	if rep, ok := vmshortcut.AsReplicable(st); ok {
		n.source = repl.NewSource(rep, repl.SourceConfig{
			Sync:              syncMode,
			HeartbeatInterval: 20 * time.Millisecond,
			Logf:              t.Logf,
		})
		cfg.Repl = n.source
	}
	if replicaOf != "" {
		fcfg.Primary = replicaOf
		fcfg.Store = st
		fcfg.BaseDir = dir
		fcfg.Logf = t.Logf
		f, err := repl.StartFollower(fcfg)
		if err != nil {
			st.Close()
			t.Fatalf("StartFollower: %v", err)
		}
		n.follower = f
		cfg.Replica = f
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(deadListener{ln, &n.dead})
	n.srv = srv
	n.addr = ln.Addr().String()
	t.Cleanup(func() { n.kill() })
	return n
}

// kill tears the node down hard, idempotently. It first stops every
// outbound byte (the kill instant, see deadListener); only then do the
// listener and connections close, then replication, then the store.
// Without the first step the server closes connections in map order: a
// follower stream closed before a client's connection leaves the primary
// with no follower, and it could still write a degraded ack to that
// client — an ack a killed process would never have sent.
func (n *node) kill() {
	n.dead.Store(true)
	n.srv.Close()
	if n.follower != nil {
		n.follower.Close()
	}
	if n.source != nil {
		n.source.Close()
	}
	n.store.Close()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// waitCaughtUp waits until the replica has applied the primary's whole
// log.
func waitCaughtUp(t *testing.T, primary, replica *node) {
	t.Helper()
	rep, _ := vmshortcut.AsReplicable(primary.store)
	waitFor(t, "replica catch-up", func() bool {
		return replica.follower.Counters().AppliedLSN >= rep.LastLSN()
	})
}

func mustDial(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.DialConnRetry(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestReplicaServesReadsRejectsWrites(t *testing.T) {
	primary := startNode(t, t.TempDir(), false, "", repl.FollowerConfig{})
	pc := mustDial(t, primary.addr)
	for k := uint64(1); k <= 200; k++ {
		if err := pc.Put(k, k*10); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}

	replica := startNode(t, "", false, primary.addr, repl.FollowerConfig{})
	waitCaughtUp(t, primary, replica)

	rc := mustDial(t, replica.addr)
	for _, k := range []uint64{1, 77, 200} {
		v, found, err := rc.Get(k)
		if err != nil || !found || v != k*10 {
			t.Fatalf("replica Get(%d) = %d, %v, %v; want %d, true", k, v, found, err, k*10)
		}
	}
	if _, found, err := rc.Get(9999); err != nil || found {
		t.Fatalf("replica Get(absent) = %v, %v", found, err)
	}

	// Every mutation shape is refused with ErrReadOnly — and the
	// connection survives the refusal.
	if err := rc.Put(5, 5); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("replica Put err = %v, want ErrReadOnly", err)
	}
	if _, err := rc.Del(5); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("replica Del err = %v, want ErrReadOnly", err)
	}
	if v, found, err := rc.Get(1); err != nil || !found || v != 10 {
		t.Fatalf("Get(1) after refusals = %d, %v, %v; the connection should survive", v, found, err)
	}

	// A pipelined mix answers per request frame: reads served, writes
	// refused, order preserved.
	p := rc.Pipeline()
	p.Get(1)
	p.Put(42, 42)
	p.Get(77)
	res, err := p.Flush(nil)
	if err != nil {
		t.Fatalf("pipeline Flush: %v", err)
	}
	if res[0].Err != nil || !res[0].Found || res[0].Value != 10 {
		t.Fatalf("pipelined Get(1) = %+v", res[0])
	}
	if !errors.Is(res[1].Err, client.ErrReadOnly) {
		t.Fatalf("pipelined Put err = %v, want ErrReadOnly", res[1].Err)
	}
	if res[2].Err != nil || !res[2].Found || res[2].Value != 770 {
		t.Fatalf("pipelined Get(77) = %+v", res[2])
	}

	// The primary still takes writes, and they flow through.
	if err := pc.Put(777, 7770); err != nil {
		t.Fatalf("primary Put: %v", err)
	}
	waitCaughtUp(t, primary, replica)
	if v, found, err := rc.Get(777); err != nil || !found || v != 7770 {
		t.Fatalf("replicated Get(777) = %d, %v, %v", v, found, err)
	}

	// Roles in STATS.
	ps, err := pc.Stats()
	if err != nil {
		t.Fatalf("primary Stats: %v", err)
	}
	if ps.Role != "primary" || ps.Replication == nil || ps.Replication.Primary == nil ||
		ps.Replication.Primary.Followers != 1 {
		t.Fatalf("primary stats role=%q replication=%+v; want primary with 1 follower", ps.Role, ps.Replication)
	}
	rs, err := rc.Stats()
	if err != nil {
		t.Fatalf("replica Stats: %v", err)
	}
	if rs.Role != "replica" || rs.Replication == nil || rs.Replication.Replica == nil ||
		!rs.Replication.Replica.Connected {
		t.Fatalf("replica stats role=%q replication=%+v; want connected replica", rs.Role, rs.Replication)
	}
}

func TestFullSyncAfterCompaction(t *testing.T) {
	// Small segments so compaction can actually drop the log's prefix;
	// with one big segment the whole log stays tailable and no follower
	// ever needs a snapshot.
	primary := startNode(t, t.TempDir(), false, "", repl.FollowerConfig{},
		vmshortcut.WithWALSegmentBytes(512))
	pc := mustDial(t, primary.addr)
	for k := uint64(1); k <= 100; k++ {
		if err := pc.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot and compact: the log's prefix is gone, so a from-zero
	// follower MUST take the snapshot path.
	d, _ := vmshortcut.AsDurable(primary.store)
	if err := d.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if _, err := d.CompactWAL(); err != nil {
		t.Fatalf("CompactWAL: %v", err)
	}
	for k := uint64(101); k <= 150; k++ {
		if err := pc.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}

	replica := startNode(t, t.TempDir(), false, primary.addr, repl.FollowerConfig{})
	waitCaughtUp(t, primary, replica)
	if fs := replica.follower.Counters().FullSyncs; fs != 1 {
		t.Fatalf("FullSyncs = %d, want 1", fs)
	}
	rc := mustDial(t, replica.addr)
	for _, k := range []uint64{1, 100, 101, 150} {
		if v, found, err := rc.Get(k); err != nil || !found || v != k {
			t.Fatalf("replica Get(%d) = %d, %v, %v", k, v, found, err)
		}
	}
}

func TestDurableReplicaRestartResumes(t *testing.T) {
	primary := startNode(t, t.TempDir(), false, "", repl.FollowerConfig{})
	pc := mustDial(t, primary.addr)
	for k := uint64(1); k <= 50; k++ {
		if err := pc.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}

	rdir := t.TempDir()
	replica := startNode(t, rdir, false, primary.addr, repl.FollowerConfig{})
	waitCaughtUp(t, primary, replica)
	applied := replica.follower.Counters().AppliedLSN
	replica.kill()

	// Writes continue while the replica is down.
	for k := uint64(51); k <= 90; k++ {
		if err := pc.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}

	// The restarted replica resumes from its local WAL position — no
	// full sync, and the handshake position maps back into the primary's
	// LSN space via the REPLBASE metadata.
	replica2 := startNode(t, rdir, false, primary.addr, repl.FollowerConfig{})
	waitCaughtUp(t, primary, replica2)
	c := replica2.follower.Counters()
	if c.FullSyncs != 0 {
		t.Fatalf("restarted replica FullSyncs = %d, want 0 (should resume)", c.FullSyncs)
	}
	if c.AppliedLSN <= applied {
		t.Fatalf("restarted replica AppliedLSN = %d, want > %d", c.AppliedLSN, applied)
	}
	rc := mustDial(t, replica2.addr)
	for _, k := range []uint64{1, 50, 51, 90} {
		if v, found, err := rc.Get(k); err != nil || !found || v != k {
			t.Fatalf("replica Get(%d) = %d, %v, %v", k, v, found, err)
		}
	}
}

// TestLagSignals pins the replication-lag signal on both ends: once a
// replica has applied and acknowledged every record, lag_records reads 0
// on the primary (newest LSN minus the slowest ack) and on the replica
// (primary LSN minus applied LSN), and the replica timed every applied
// record into its follower_apply stage histogram.
func TestLagSignals(t *testing.T) {
	const n = 30
	primary := startNode(t, t.TempDir(), false, "", repl.FollowerConfig{})
	pipe := obs.NewPipeline(obs.NewRegistry())
	replica := startNode(t, t.TempDir(), false, primary.addr, repl.FollowerConfig{Pipeline: pipe})
	pc := mustDial(t, primary.addr)
	for k := uint64(1); k <= n; k++ {
		if err := pc.Put(k, k); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	waitCaughtUp(t, primary, replica)
	waitFor(t, "primary lag_records 0", func() bool {
		c := primary.source.Counters()
		return c.Followers == 1 && c.MinAckedLSN == c.LastLSN && c.LagRecords == 0
	})
	rc := replica.follower.Counters()
	if rc.LagRecords != rc.PrimaryLSN-rc.AppliedLSN || rc.LagRecords != 0 {
		t.Fatalf("caught-up replica: lag_records %d, primary LSN %d, applied %d", rc.LagRecords, rc.PrimaryLSN, rc.AppliedLSN)
	}
	if got := pipe.Hist(obs.StageFollowerApply).Count(); got != rc.RecordsApplied || got == 0 {
		t.Fatalf("follower_apply count %d, records applied %d", got, rc.RecordsApplied)
	}
}

// TestUnattachedAcksCounted pins the degraded-ack counter of synchronous
// replication: every write acknowledged while no follower is attached
// counts once, on the counters and on the metrics endpoint, and writes an
// attached follower acknowledged do not count.
func TestUnattachedAcksCounted(t *testing.T) {
	const n = 20
	primary := startNode(t, t.TempDir(), true, "", repl.FollowerConfig{})
	pc := mustDial(t, primary.addr)
	for k := uint64(1); k <= n; k++ {
		if err := pc.Put(k, k); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	if got := primary.source.Counters().UnattachedAcks; got != n {
		t.Fatalf("UnattachedAcks = %d after %d unreplicated writes, want %d", got, n, n)
	}
	var prom bytes.Buffer
	if err := primary.metrics.Registry().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("eh_repl_unattached_acks_total %d\n", n); !strings.Contains(prom.String(), want) {
		t.Fatalf("metrics lack %q", want)
	}

	startNode(t, "", false, primary.addr, repl.FollowerConfig{})
	waitFor(t, "follower attached", func() bool { return primary.source.Counters().Followers == 1 })
	for k := uint64(n + 1); k <= 2*n; k++ {
		if err := pc.Put(k, k); err != nil {
			t.Fatalf("Put(%d): %v", k, err)
		}
	}
	c := primary.source.Counters()
	if c.UnattachedAcks != n || c.SyncTimeouts != 0 {
		t.Fatalf("with a follower attached: UnattachedAcks = %d (want %d), SyncTimeouts = %d (want 0)",
			c.UnattachedAcks, n, c.SyncTimeouts)
	}
}

// TestSameKindRecordsShip pins why the same-kind batch codes outlive
// their request frames: a durable store's uniform PUT and DEL batches log
// PUTBATCH (0x06) and DELBATCH (0x07) records, and logs holding them must
// still ship to, and apply on, a follower.
func TestSameKindRecordsShip(t *testing.T) {
	primary := startNode(t, t.TempDir(), false, "", repl.FollowerConfig{})
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = uint64(i) + 1
	}
	var (
		b   vmshortcut.OpBatch
		res vmshortcut.OpResults
	)
	for _, k := range keys {
		b.Put(k, k)
	}
	if err := primary.store.ApplyBatch(&b, &res); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	for _, k := range keys[:10] {
		b.Del(k)
	}
	if err := primary.store.ApplyBatch(&b, &res); err != nil {
		t.Fatal(err)
	}
	for _, ok := range res.Found {
		if !ok {
			t.Fatal("DEL batch missed a key")
		}
	}

	rep, _ := vmshortcut.AsReplicable(primary.store)
	last := rep.LastLSN()
	errEnd := errors.New("end of log")
	var codes []byte
	err := rep.TailWAL(0, nil, func(r wal.TailRecord) error {
		codes = append(codes, r.Code)
		if r.LSN >= last {
			return errEnd
		}
		return nil
	})
	if !errors.Is(err, errEnd) {
		t.Fatalf("TailWAL: %v", err)
	}
	if string(codes) != string([]byte{op.CodePutBatch, op.CodeDelBatch}) {
		t.Fatalf("primary log codes = %x, want PUTBATCH then DELBATCH", codes)
	}

	replica := startNode(t, t.TempDir(), false, primary.addr, repl.FollowerConfig{})
	waitCaughtUp(t, primary, replica)
	rc := mustDial(t, replica.addr)
	for _, k := range []uint64{1, 10} {
		if _, found, err := rc.Get(k); err != nil || found {
			t.Fatalf("replica Get(deleted %d) = %v, %v", k, found, err)
		}
	}
	for _, k := range []uint64{11, 100} {
		if v, found, err := rc.Get(k); err != nil || !found || v != k {
			t.Fatalf("replica Get(%d) = %d, %v, %v", k, v, found, err)
		}
	}
}

// TestFailoverLosesNoAckedWrite is the subsystem's reason to exist:
// under synchronous replication, writers hammer the primary from
// several connections, the primary dies mid-stream without warning, the
// replica is promoted — and every write any client saw acknowledged is
// on the new primary.
func TestFailoverLosesNoAckedWrite(t *testing.T) {
	primary := startNode(t, t.TempDir(), true /* sync */, "", repl.FollowerConfig{})
	replica := startNode(t, t.TempDir(), false, primary.addr, repl.FollowerConfig{})

	// Sync-mode soundness gate: until a follower is attached, the
	// primary acknowledges without replication (degraded mode), and
	// those writes carry no failover guarantee.
	waitFor(t, "follower attach", func() bool {
		return primary.source.Counters().Followers >= 1
	})

	const writers = 4
	var (
		mu    sync.Mutex
		acked []uint64
	)
	var wg sync.WaitGroup
	stopWriters := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.DialConnRetry(primary.addr, 2*time.Second)
			if err != nil {
				return
			}
			defer c.Close()
			for i := uint64(0); ; i++ {
				select {
				case <-stopWriters:
					return
				default:
				}
				key := uint64(w)<<32 | i
				if err := c.Put(key, key+1); err != nil {
					return // the primary died under us; unacked, uncounted
				}
				mu.Lock()
				acked = append(acked, key)
				mu.Unlock()
			}
		}(w)
	}

	// Let the writers build up real traffic, then kill the primary
	// abruptly — connections and all, no drain.
	waitFor(t, "some acked writes", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(acked) >= 500
	})
	primary.kill()
	close(stopWriters)
	wg.Wait()

	// Before promotion the replica still refuses writes.
	rc := mustDial(t, replica.addr)
	if err := rc.Put(1, 1); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("pre-promote Put err = %v, want ErrReadOnly", err)
	}

	// Promote over the wire (the same frame ehload's failover check
	// uses), then verify: every acknowledged write must be present.
	if err := rc.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	mu.Lock()
	keys := append([]uint64(nil), acked...)
	mu.Unlock()
	t.Logf("verifying %d acked writes after failover", len(keys))
	for _, k := range keys {
		v, found, err := rc.Get(k)
		if err != nil {
			t.Fatalf("Get(%d) after promote: %v", k, err)
		}
		if !found || v != k+1 {
			t.Fatalf("ACKED WRITE LOST: key %d (found=%v v=%d)", k, found, v)
		}
	}
	// And the new primary takes writes.
	if err := rc.Put(424242, 1); err != nil {
		t.Fatalf("post-promote Put: %v", err)
	}
	if s, err := rc.Stats(); err != nil || s.Role != "primary" {
		t.Fatalf("post-promote Stats role = %q, %v; want primary", s.Role, err)
	}
}

func TestStalenessGate(t *testing.T) {
	primary := startNode(t, t.TempDir(), false, "", repl.FollowerConfig{})
	pc := mustDial(t, primary.addr)
	if err := pc.Put(1, 10); err != nil {
		t.Fatal(err)
	}
	replica := startNode(t, "", false, primary.addr, repl.FollowerConfig{
		Staleness: 250 * time.Millisecond,
	})
	waitCaughtUp(t, primary, replica)

	rc := mustDial(t, replica.addr)
	if v, found, err := rc.Get(1); err != nil || !found || v != 10 {
		t.Fatalf("fresh replica Get = %d, %v, %v", v, found, err)
	}

	// Primary vanishes; once the staleness bound passes with no
	// heartbeat, reads flip to ErrStale (writes stay ErrReadOnly).
	primary.kill()
	waitFor(t, "staleness bound to pass", func() bool {
		_, _, err := rc.Get(1)
		return errors.Is(err, client.ErrStale)
	})
	if err := rc.Put(2, 2); !errors.Is(err, client.ErrReadOnly) {
		t.Fatalf("stale replica Put err = %v, want ErrReadOnly", err)
	}
	// A pipelined mix is refused per request frame: the read as stale,
	// the write as read-only.
	p := rc.Pipeline()
	p.Get(1)
	p.Put(3, 3)
	res, err := p.Flush(nil)
	if err != nil || len(res) != 2 || !errors.Is(res[0].Err, client.ErrStale) || !errors.Is(res[1].Err, client.ErrReadOnly) {
		t.Fatalf("stale replica pipelined GET+PUT = %+v, %v; want ErrStale, ErrReadOnly", res, err)
	}

	// Promotion clears staleness: the replica is its own authority now.
	if err := rc.Promote(); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if v, found, err := rc.Get(1); err != nil || !found || v != 10 {
		t.Fatalf("post-promote Get = %d, %v, %v", v, found, err)
	}
}

// TestRetiredHashedFrameHaltsFollower runs a follower against a fake
// primary that ships one valid record and then a frame under the retired
// tag 0x24, laid out as the old hashed record (lsn, code, 32-byte digest,
// payload). The follower must apply the first, halt on the second rather
// than skip it or reconnect into it again, and apply nothing after it.
func TestRetiredHashedFrameHaltsFollower(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Two put-batch records as a primary would ship them.
	payloadFor := func(key, val uint64) (byte, []byte) {
		var b op.Batch
		b.Put(key, val)
		code, p := b.Payload()
		return code, append([]byte(nil), p...)
	}
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		var buf []byte
		tag, payload, _, err := wire.ReadReplFrame(bufio.NewReader(c), buf)
		if err != nil || tag != wire.OpReplSync {
			served <- fmt.Errorf("handshake: tag 0x%02x, %v", tag, err)
			return
		}
		from, err := wire.DecodeReplSync(payload)
		if err != nil {
			served <- fmt.Errorf("handshake: %v", err)
			return
		}
		code, p1 := payloadFor(1, 10)
		out := wire.AppendReplRecord(nil, from+1, code, p1)
		// The old hashed record is a record frame whose payload starts
		// with a 32-byte digest, under tag 0x24.
		code2, p2 := payloadFor(2, 20)
		hashed := wire.AppendReplRecord(nil, from+2, code2, append(make([]byte, 32), p2...))
		hashed[4] = 0x24
		out = append(out, hashed...)
		// Record 3 is valid and in sequence, but comes after the frame
		// the follower must stop at.
		code3, p3 := payloadFor(3, 30)
		out = wire.AppendReplRecord(out, from+2, code3, p3)
		if _, err := c.Write(out); err != nil {
			served <- err
			return
		}
		// Hold the connection open: the follower must halt on its own
		// verdict, not on EOF.
		ack := make([]byte, 64)
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			if _, err := c.Read(ack); err != nil {
				served <- nil
				return
			}
		}
	}()

	st, err := vmshortcut.Open(vmshortcut.KindEH, vmshortcut.WithConcurrency(true))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	f, err := repl.StartFollower(repl.FollowerConfig{
		Primary: ln.Addr().String(),
		Store:   st,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	waitFor(t, "follower to halt", func() bool { return f.Err() != nil })
	if got := f.Err().Error(); !strings.Contains(got, "unexpected stream frame 0x24") {
		t.Fatalf("fatal error = %q, want unexpected stream frame 0x24", got)
	}
	if v, ok := st.Lookup(1); !ok || v != 10 {
		t.Fatalf("record before the 0x24 frame not applied: %v %d", ok, v)
	}
	for _, k := range []uint64{2, 3} {
		if _, ok := st.Lookup(k); ok {
			t.Fatalf("key %d from at or after the 0x24 frame was applied", k)
		}
	}
	if c := f.Counters(); c.RecordsApplied != 1 {
		t.Fatalf("RecordsApplied = %d, want 1", c.RecordsApplied)
	}
	if err := <-served; err != nil {
		t.Fatalf("fake primary: %v", err)
	}
}
