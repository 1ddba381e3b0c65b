package server_test

import (
	"bufio"
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
// multi-entry runs of one ApplyBatch call, visible in the store's batch
// counters, with every response still correct and in order.
func TestPipelinedRunsCoalesce(t *testing.T) {
	srv, st, addr := startServer(t, server.Config{})
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

// TestBatchFrames pins the batch-frame contract: there is no batch
// request frame; pipelined single-op frames are the one request framing.
// The retired same-kind request frames (GETBATCH 0x05, PUTBATCH 0x06,
// DELBATCH 0x07) — well-formed payloads and all — are refused like any
// unknown opcode: one StatusErr frame, then the connection closes, and
// the store is untouched. Their codes live on only as WAL record opcodes.
// The retired trace-context envelope (0x12, u64 trace ID + u8 flags) is
// refused the same way, and the PUT it used to precede is never applied.
func TestBatchFrames(t *testing.T) {
	_, st, addr := startServer(t, server.Config{})
	keys := []uint64{10, 20}
	frames := map[string][]byte{
		"GETBATCH": wire.AppendFrame(nil, op.CodeGetBatch, op.AppendKeysPayload(nil, keys)),
		"PUTBATCH": wire.AppendFrame(nil, op.CodePutBatch, op.AppendPairsPayload(nil, keys, keys)),
		"DELBATCH": wire.AppendFrame(nil, op.CodeDelBatch, op.AppendKeysPayload(nil, keys)),
		"TRACECTX": wire.AppendPut(wire.AppendFrame(nil, 0x12, []byte{1, 0, 0, 0, 0, 0, 0, 0, 1}), 10, 10),
	}
	for name, frame := range frames {
		expectRefused(t, addr, name, frame)
	}
	if n := st.Len(); n != 0 {
		t.Fatalf("refused batch frames changed the store: %d entries", n)
	}
}

// TestMixedBatchFrame pins the retired MIXEDBATCH request frame (0x08): a
// well-formed ordered GET/PUT/DEL mix is refused as an unknown opcode, and
// none of its mutations applies. 0x08 lives on as the MIXED WAL record
// opcode; a pipelined run of single-op frames is what the server gathers
// into one store batch instead.
func TestMixedBatchFrame(t *testing.T) {
	_, st, addr := startServer(t, server.Config{})
	var m op.Batch
	m.Put(1, 11)
	m.Get(1)
	m.Del(2)
	expectRefused(t, addr, "MIXEDBATCH", wire.AppendFrame(nil, op.CodeMixedBatch, m.AppendMixedPayload(nil)))
	if n := st.Len(); n != 0 {
		t.Fatalf("a refused MIXEDBATCH frame changed the store: %d entries", n)
	}
}

// expectRefused sends frame on a fresh connection and requires one
// StatusErr unknown-opcode frame in reply, then the connection closed.
func expectRefused(t *testing.T, addr, name string, frame []byte) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write(frame); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	// ReadAll returning without error means the server closed the
	// connection after its reply.
	reply, err := io.ReadAll(raw)
	if err != nil {
		t.Fatalf("%s: connection not closed: %v", name, err)
	}
	tag, msg, _, err := wire.ReadFrame(bufio.NewReader(bytes.NewReader(reply)), nil)
	if err != nil || tag != wire.StatusErr || !strings.Contains(string(msg), "unknown opcode") {
		t.Fatalf("%s: reply = tag 0x%02x %q (%v), want a StatusErr unknown-opcode frame", name, tag, msg, err)
	}
	if rest := len(reply) - wire.HeaderSize - len(msg); rest != 0 {
		t.Fatalf("%s: %d bytes after the error frame", name, rest)
	}
}

// TestShardedStoreBehindServer runs the wire path against a sharded
// store: the coalesced batches must fan out per shard and come back in
// request order.
func TestShardedStoreBehindServer(t *testing.T) {
	_, st, addr := startServer(t, server.Config{}, vmshortcut.WithShards(4))
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

// TestMixedCoalescingAcrossKinds is the acceptance check for the
// coalescer's mixed batches: a pipelined burst that SWITCHES kinds must still gather
// into few ApplyBatch calls (visible as one coalesced batch per flush,
// not one per kind switch), with every response correct and in order.
func TestMixedCoalescingAcrossKinds(t *testing.T) {
	srv, _, addr := startServer(t, server.Config{})
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

// TestShutdownAnswersRunCutByTornFrame is the drain contract for a
// coalesced run whose next frame is still in flight: the coalescer has
// gathered a PUT and a GET and is reading a DEL frame whose header
// arrived but whose body did not. Shutdown's deadline poke cuts that
// read; the gathered requests must still be executed and answered in
// order, and the connection must close right after, because the stream
// is no longer frame-aligned. The torn DEL is never applied.
func TestShutdownAnswersRunCutByTornFrame(t *testing.T) {
	srv, st, addr := startServer(t, server.Config{})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()

	var burst []byte
	burst = wire.AppendPut(burst, 1, 10)
	burst = wire.AppendKey(burst, wire.OpGet, 1)
	del := wire.AppendKey(nil, wire.OpDel, 1)
	burst = append(burst, del[:wire.HeaderSize+3]...)
	if _, err := raw.Write(burst); err != nil {
		t.Fatal(err)
	}
	// Give the server time to ingest the burst and block on the rest of
	// the DEL body; nothing more will arrive.
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
	// PUT ack, then GET hit (5-byte header + 8-byte value), then EOF.
	if want := 2*wire.HeaderSize + 8; len(reply) != want {
		t.Fatalf("drained %d response bytes, want %d", len(reply), want)
	}
	if reply[4] != wire.StatusOK {
		t.Fatalf("PUT response = %x", reply[:wire.HeaderSize])
	}
	get := reply[wire.HeaderSize:]
	if get[4] != wire.StatusOK || wire.Uint64(get, wire.HeaderSize) != 10 {
		t.Fatalf("GET response = %x", get)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if v, ok := st.Lookup(1); !ok || v != 10 {
		t.Fatalf("after the drain: Lookup(1) = %d, %v; the torn DEL must not apply", v, ok)
	}
}

// TestConcurrentClients hammers one server from several connections, one
// Conn per worker; run under -race this is the serving-path race check.
func TestConcurrentClients(t *testing.T) {
	_, _, addr := startServer(t, server.Config{}, vmshortcut.WithShards(2))

	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.DialConn(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
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
