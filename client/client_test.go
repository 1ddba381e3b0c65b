package client_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"vmshortcut"
	"vmshortcut/client"
	"vmshortcut/server"
)

func startServer(t *testing.T) string {
	t.Helper()
	store, err := vmshortcut.Open(vmshortcut.KindShortcutEH,
		vmshortcut.WithConcurrency(true), vmshortcut.WithPollInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	srv, err := server.New(server.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// TestDeepPipelineNoDeadlock queues far more request bytes than the
// combined socket buffers hold; Flush's segmented write/read interleave
// must complete it where a write-everything-then-read client would
// deadlock against the server.
func TestDeepPipelineNoDeadlock(t *testing.T) {
	addr := startServer(t)
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 200_000 // ≈2.6 MB of GET frames
	p := c.Pipeline()
	if err := c.Put(1, 11); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p.Get(1)
	}
	done := make(chan struct{})
	var res []client.Result
	go func() {
		defer close(done)
		res, err = p.Flush(nil)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deep pipeline Flush deadlocked")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n || !res[0].Found || res[0].Value != 11 || !res[n-1].Found {
		t.Fatalf("deep pipeline results wrong: len=%d first=%+v", len(res), res[0])
	}
}

// TestOversizedBatchRejectedClientSide: a mixed batch beyond
// wire.MaxMixedBatch must fail at Flush with an actionable error, before
// any byte is written, and leave both the connection and the pipeline
// usable.
func TestOversizedBatchRejectedClientSide(t *testing.T) {
	addr := startServer(t)
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var m client.MixedBatch
	for i := uint64(0); i < 70_000; i++ {
		m.Put(i, i)
	}
	p := c.Pipeline()
	p.Mixed(&m)
	if _, err := p.Flush(nil); err == nil || !strings.Contains(err.Error(), "MaxMixedBatch") {
		t.Fatalf("pipeline Flush = %v, want MaxMixedBatch error", err)
	}
	// The connection must still work: nothing was written.
	if err := c.Put(3, 33); err != nil {
		t.Fatalf("conn dead after rejected batch: %v", err)
	}
	if v, ok, err := c.Get(3); err != nil || !ok || v != 33 {
		t.Fatalf("Get(3) after rejected batch = %d, %v, %v", v, ok, err)
	}
	// So must the pipeline: the rejected batch is dropped, not re-reported.
	if p.Len() != 0 {
		t.Fatalf("pipeline keeps the rejected batch: Len = %d", p.Len())
	}
	p.Put(4, 44)
	p.Get(4)
	res, err := p.Flush(nil)
	if err != nil || len(res) != 2 || !res[0].Found || res[1].Value != 44 {
		t.Fatalf("pipeline Flush after rejected batch = %+v, %v", res, err)
	}
}

func TestEmptyPipelineFlush(t *testing.T) {
	addr := startServer(t)
	c, err := client.DialConn(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := c.Pipeline()
	res, err := p.Flush(nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty Flush = %v, %v", res, err)
	}
	// Reuse after an op-bearing flush.
	p.Put(1, 2)
	if res, err = p.Flush(nil); err != nil || len(res) != 1 || !res[0].Found {
		t.Fatalf("Flush = %+v, %v", res, err)
	}
	if p.Len() != 0 {
		t.Fatalf("pipeline not reset: Len = %d", p.Len())
	}
}
