package server_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"vmshortcut"
	"vmshortcut/client"
	"vmshortcut/internal/op"
	"vmshortcut/internal/wire"
	"vmshortcut/server"
)

// coalesceWindow is the batch window of the tests that assert exact
// coalescing: a pipelined burst that TCP happens to split across reads
// still gathers into one run. Tests without batch assertions run with
// window 0 so lone requests are not delayed.
const coalesceWindow = 100 * time.Millisecond

// startServer opens a store and serves it on a loopback port, cleaning
// both up with the test.
func startServer(t *testing.T, cfg server.Config, storeOpts ...vmshortcut.Option) (*server.Server, vmshortcut.Store, string) {
	t.Helper()
	opts := append([]vmshortcut.Option{
		vmshortcut.WithPollInterval(time.Millisecond),
		vmshortcut.WithConcurrency(true),
	}, storeOpts...)
	st, err := vmshortcut.Open(vmshortcut.KindShortcutEH, opts...)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })

	cfg.Store = st
	cfg.Logf = t.Logf
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return srv, st, ln.Addr().String()
}

func TestSingleOpsRoundTrip(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, found, err := c.Get(1); err != nil || found {
		t.Fatalf("Get(absent) = %v, %v", found, err)
	}
	if err := c.Put(1, 42); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if v, found, err := c.Get(1); err != nil || !found || v != 42 {
		t.Fatalf("Get(1) = %d, %v, %v", v, found, err)
	}
	if found, err := c.Del(1); err != nil || !found {
		t.Fatalf("Del(1) = %v, %v", found, err)
	}
	if found, err := c.Del(1); err != nil || found {
		t.Fatalf("second Del(1) = %v, %v", found, err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Store.Kind != vmshortcut.KindShortcutEH || st.Server.Ops == 0 {
		t.Fatalf("Stats = %+v", st)
	}
}

// TestPipelinedRunsCoalesce is the acceptance check for the coalescer:
// pipelined single-op frames of one kind must reach the store as
// InsertBatch/LookupBatch/DeleteBatch calls, visible in the store's
// batch-op counters, with every response still correct and in order.
func TestPipelinedRunsCoalesce(t *testing.T) {
	srv, st, addr := startServer(t, server.Config{BatchWindow: coalesceWindow})
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	p := c.Pipeline()
	for i := uint64(0); i < n; i++ {
		p.Put(i, i*3)
	}
	res, err := p.Flush(nil)
	if err != nil {
		t.Fatalf("put pipeline: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || !r.Found {
			t.Fatalf("put result[%d] = %+v", i, r)
		}
	}

	for i := uint64(0); i < n; i++ {
		p.Get(i)
	}
	if res, err = p.Flush(res[:0]); err != nil {
		t.Fatalf("get pipeline: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || !r.Found || r.Value != uint64(i)*3 {
			t.Fatalf("get result[%d] = %+v, want value %d", i, r, i*3)
		}
	}

	for i := uint64(0); i < n; i++ {
		p.Del(i)
	}
	if res, err = p.Flush(res[:0]); err != nil {
		t.Fatalf("del pipeline: %v", err)
	}
	for i, r := range res {
		if r.Err != nil || !r.Found {
			t.Fatalf("del result[%d] = %+v", i, r)
		}
	}

	stats := st.Stats()
	if stats.InsertBatches == 0 || stats.LookupBatches == 0 || stats.DeleteBatches == 0 {
		t.Fatalf("pipelined runs did not reach the store as batches: %+v", stats)
	}
	counters := srv.Counters()
	if counters.CoalescedBatches < 3 || counters.CoalescedOps < 3*n-6 {
		t.Fatalf("coalescer counters = %+v", counters)
	}
}

// TestPipelineOrderAcrossKinds interleaves op kinds so the coalescer must
// break runs at every kind switch and answer strictly in request order.
func TestPipelineOrderAcrossKinds(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	p := c.Pipeline()
	p.Put(7, 70) // 0: ack
	p.Get(7)     // 1: 70
	p.Put(7, 71) // 2: ack — same key overwritten after the read
	p.Get(7)     // 3: 71
	p.Del(7)     // 4: found
	p.Get(7)     // 5: miss
	p.Put(8, 80) // 6: ack
	p.Get(8)     // 7: 80
	res, err := p.Flush(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		found bool
		value uint64
	}{
		{true, 0}, {true, 70}, {true, 0}, {true, 71},
		{true, 0}, {false, 0}, {true, 0}, {true, 80},
	}
	for i, w := range want {
		if res[i].Err != nil || res[i].Found != w.found || res[i].Value != w.value {
			t.Fatalf("result[%d] = %+v, want %+v", i, res[i], w)
		}
	}
}

// TestBatchFrames pins the batch-frame contract: MIXEDBATCH is the only
// batch request frame. The retired same-kind request frames (GETBATCH
// 0x05, PUTBATCH 0x06, DELBATCH 0x07) — well-formed payloads and all —
// are refused like any unknown opcode: one StatusErr frame, then the
// connection closes, and the store is untouched. Their codes live on
// only as WAL record opcodes.
func TestBatchFrames(t *testing.T) {
	_, st, addr := startServer(t, server.Config{})
	keys := []uint64{10, 20}
	frames := map[string][]byte{
		"GETBATCH": wire.AppendFrame(nil, op.CodeGetBatch, op.AppendKeysPayload(nil, keys)),
		"PUTBATCH": wire.AppendFrame(nil, op.CodePutBatch, op.AppendPairsPayload(nil, keys, keys)),
		"DELBATCH": wire.AppendFrame(nil, op.CodeDelBatch, op.AppendKeysPayload(nil, keys)),
	}
	for name, frame := range frames {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(frame); err != nil {
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		// ReadAll returning without error means the server closed the
		// connection after its reply.
		reply, err := io.ReadAll(raw)
		raw.Close()
		if err != nil {
			t.Fatalf("%s: connection not closed: %v", name, err)
		}
		tag, msg, _, err := wire.ReadFrame(bytes.NewReader(reply), nil)
		if err != nil || tag != wire.StatusErr || !strings.Contains(string(msg), "unknown opcode") {
			t.Fatalf("%s: reply = tag 0x%02x %q (%v), want a StatusErr unknown-opcode frame", name, tag, msg, err)
		}
		if rest := len(reply) - wire.HeaderSize - len(msg); rest != 0 {
			t.Fatalf("%s: %d bytes after the error frame", name, rest)
		}
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("refused batch frames changed the store: %d entries", n)
	}
}

// TestShardedStoreBehindServer runs the wire path against a sharded
// store: the coalesced batches must fan out per shard and come back in
// request order.
func TestShardedStoreBehindServer(t *testing.T) {
	_, st, addr := startServer(t, server.Config{BatchWindow: coalesceWindow}, vmshortcut.WithShards(4))
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 500
	p := c.Pipeline()
	for i := uint64(0); i < n; i++ {
		p.Put(i*2654435761, i)
	}
	res, err := p.Flush(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		p.Get(i * 2654435761)
	}
	if res, err = p.Flush(res[:0]); err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || !r.Found || r.Value != uint64(i) {
			t.Fatalf("sharded get[%d] = %+v", i, r)
		}
	}
	if stats := st.Stats(); stats.InsertBatches == 0 || stats.LookupBatches == 0 {
		t.Fatalf("sharded store saw no batches: %+v", stats)
	}
}

// TestMixedBatchFrame drives the MIXEDBATCH opcode end to end: one
// frame carrying an ordered GET/PUT/DEL mix, one ApplyBatch on the
// store, element-wise results in entry order — including same-key
// read-after-write ordering inside the frame.
func TestMixedBatchFrame(t *testing.T) {
	_, st, addr := startServer(t, server.Config{})
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var m client.MixedBatch
	m.Put(1, 11) // 0: ack
	m.Get(1)     // 1: 11
	m.Put(1, 12) // 2: ack — same key, later entry
	m.Get(1)     // 3: 12
	m.Del(1)     // 4: found
	m.Get(1)     // 5: miss
	m.Get(2)     // 6: miss
	m.Put(2, 22) // 7: ack
	p := c.Pipeline()
	p.Mixed(&m)
	if got := p.Len(); got != 8 {
		t.Fatalf("pipeline queued %d ops for the mixed batch", got)
	}
	res, err := p.Flush(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		found bool
		value uint64
	}{
		{true, 0}, {true, 11}, {true, 0}, {true, 12},
		{true, 0}, {false, 0}, {false, 0}, {true, 0},
	}
	for i, w := range want {
		if res[i].Err != nil || res[i].Found != w.found || res[i].Value != w.value {
			t.Fatalf("result[%d] = %+v, want %+v", i, res[i], w)
		}
	}
	if v, ok := st.Lookup(2); !ok || v != 22 {
		t.Fatalf("store after mixed batch: Lookup(2) = %d, %v", v, ok)
	}
}

// TestMixedCoalescingAcrossKinds is the acceptance check for the mixed
// coalescer: a pipelined burst that SWITCHES kinds must still gather
// into few ApplyBatch calls (visible as one coalesced batch per flush,
// not one per kind switch), with every response correct and in order.
func TestMixedCoalescingAcrossKinds(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{BatchWindow: coalesceWindow})
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const rounds = 32
	p := c.Pipeline()
	for i := uint64(0); i < rounds; i++ {
		p.Put(i, i*7) // alternate kinds every op: the old same-kind
		p.Get(i)      // coalescer would break the run 2×rounds times
	}
	res, err := p.Flush(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < rounds; i++ {
		put, get := res[2*i], res[2*i+1]
		if put.Err != nil || !put.Found {
			t.Fatalf("put result[%d] = %+v", i, put)
		}
		if get.Err != nil || !get.Found || get.Value != i*7 {
			t.Fatalf("get result[%d] = %+v, want %d", i, get, i*7)
		}
	}
	counters := srv.Counters()
	if counters.CoalescedBatches == 0 {
		t.Fatal("no coalesced batches despite a pipelined burst")
	}
	// The burst is 64 ops; a same-kind coalescer would need ≥ 64 store
	// calls (every op is a kind switch). The mixed coalescer must carry
	// many ops per batch.
	if avg := float64(counters.CoalescedOps) / float64(counters.CoalescedBatches); avg < 8 {
		t.Fatalf("coalesced batches average %.1f ops — kind switches still break the batch", avg)
	}
}

// TestShutdownDrainsHalfFilledWindow is the drain contract for the mixed
// coalescer's batch window: a connection whose coalescer sits mid-window
// with a half-filled MIXED batch (a PUT, a GET, and a DEL gathered, more
// expected) must, on Shutdown, execute the gathered batch, flush the
// responses in order, and close — not drop the batch, not wait out the
// window. Run under -race in CI this also checks the drain poke against
// the window wait.
func TestShutdownDrainsHalfFilledWindow(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{BatchWindow: 30 * time.Second})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	// Three single-op frames of different kinds, then silence: the
	// coalescer gathers all three and parks in the 30s batch window.
	var burst []byte
	burst = wire.AppendPut(burst, 1, 10)
	burst = wire.AppendKey(burst, wire.OpGet, 1)
	burst = wire.AppendKey(burst, wire.OpDel, 1)
	if _, err := raw.Write(burst); err != nil {
		t.Fatal(err)
	}
	// Give the server time to ingest the burst and enter the window wait
	// (the responses cannot arrive before Shutdown — the window flush
	// only happens when the coalescer peeks, which it has: nothing more
	// will arrive).
	time.Sleep(100 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := io.ReadAll(raw)
	if err != nil {
		t.Fatalf("reading drained responses: %v", err)
	}
	// PUT ack, GET hit (5-byte header + 8-byte value), DEL found.
	if want := 3*wire.HeaderSize + 8; len(reply) != want {
		t.Fatalf("drained %d response bytes, want %d", len(reply), want)
	}
	if reply[4] != wire.StatusOK {
		t.Fatalf("PUT response = %x", reply[:wire.HeaderSize])
	}
	get := reply[wire.HeaderSize:]
	if get[4] != wire.StatusOK || wire.Uint64(get, wire.HeaderSize) != 10 {
		t.Fatalf("GET response = %x", get[:wire.HeaderSize+8])
	}
	del := get[wire.HeaderSize+8:]
	if del[4] != wire.StatusOK {
		t.Fatalf("DEL response = %x", del)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestConcurrentClients hammers one server from several pooled clients;
// run under -race this is the serving-path race check.
func TestConcurrentClients(t *testing.T) {
	_, _, addr := startServer(t, server.Config{}, vmshortcut.WithShards(2))
	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) << 32
			for i := uint64(0); i < perWorker; i++ {
				if err := cl.Put(base+i, i); err != nil {
					errs <- err
					return
				}
			}
			for i := uint64(0); i < perWorker; i++ {
				v, found, err := cl.Get(base + i)
				if err != nil || !found || v != i {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("worker: %v", err)
	}
}

// TestMalformedFrameClosesConn sends a frame with an insane length
// prefix; the server must answer with an error frame (or just close) and
// drop the connection rather than misinterpret the stream.
func TestMalformedFrameClosesConn(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], 1<<30) // over MaxFrame
	hdr[4] = 0x01
	if _, err := raw.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Whatever arrives, the stream must end: read to EOF.
	if _, err := io.ReadAll(raw); err != nil {
		t.Fatalf("conn not closed after malformed frame: %v", err)
	}
}

// TestUnknownOpcodeRejected sends a well-formed frame with a bogus
// opcode; the connection must be answered with StatusErr and closed.
func TestUnknownOpcodeRejected(t *testing.T) {
	_, _, addr := startServer(t, server.Config{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	var frame [5]byte
	binary.LittleEndian.PutUint32(frame[:4], 1)
	frame[4] = 0x7F
	if _, err := raw.Write(frame[:]); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := io.ReadAll(raw)
	if err != nil {
		t.Fatalf("reading error reply: %v", err)
	}
	if len(reply) < 5 || reply[4] != 0x02 { // StatusErr
		t.Fatalf("reply = %x, want a StatusErr frame", reply)
	}
}

// TestGracefulShutdown writes a pipelined burst, waits until the server
// has ingested every request, then shuts down — every received request
// must still be answered and the responses flushed before the connection
// closes. The WaitSync/Close draining contract of cmd/ehserver depends
// on this.
func TestGracefulShutdown(t *testing.T) {
	srv, st, addr := startServer(t, server.Config{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	const n = 2000
	var burst []byte
	for i := uint64(0); i < n; i++ {
		burst = wire.AppendPut(burst, i, i+1)
	}
	if _, err := raw.Write(burst); err != nil {
		t.Fatal(err)
	}
	// Wait until every PUT has been applied, so nothing is in TCP flight
	// when the drain starts.
	deadline := time.Now().Add(10 * time.Second)
	for st.Len() != n {
		if time.Now().After(deadline) {
			t.Fatalf("server ingested %d/%d requests", st.Len(), n)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// All n acks must arrive, then a clean EOF.
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := io.ReadAll(raw)
	if err != nil {
		t.Fatalf("reading drained responses: %v", err)
	}
	if want := n * wire.HeaderSize; len(reply) != want {
		t.Fatalf("drained %d response bytes, want %d (%d acks)", len(reply), want, n)
	}
	for i := 0; i < n; i++ {
		if reply[i*wire.HeaderSize+4] != wire.StatusOK {
			t.Fatalf("response %d not StatusOK: %x", i, reply[i*wire.HeaderSize:(i+1)*wire.HeaderSize])
		}
	}
	// The store is still the caller's to close — the server must not have
	// touched it.
	if !st.WaitSync(5 * time.Second) {
		t.Fatal("WaitSync after shutdown")
	}
}
