// kvserver: a self-contained demo of the network KV service — it starts
// the binary-protocol server (package server) over a Shortcut-EH store,
// drives it through the Go client (package client), and prints what
// happened on the wire, including how the per-connection coalescer turned
// the pipelined requests into store batch calls.
//
// This is the smallest end-to-end serving example; the production-shaped
// pieces are cmd/ehserver (the standalone daemon, every Open option as a
// flag) and cmd/ehload (the YCSB load generator that writes
// BENCH_server.json).
//
// Run with:  go run ./examples/kvserver [-addr 127.0.0.1:0]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"vmshortcut"
	"vmshortcut/client"
	"vmshortcut/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address (defaults to an ephemeral loopback port)")
	flag.Parse()

	// The store: the paper's Shortcut-EH behind the uniform facade, with
	// the concurrent wrapper so connection goroutines can share it.
	store, err := vmshortcut.Open(vmshortcut.KindShortcutEH, vmshortcut.WithConcurrency(true))
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	defer store.Close()

	// The server: one Config field is mandatory — the store. Only requests
	// already buffered on a connection coalesce, so batching adds no
	// latency.
	srv, err := server.New(server.Config{Store: store, Logf: log.Printf})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	fmt.Printf("kvserver listening on %s\n", ln.Addr())

	// The client: one connection, and a pipeline over it.
	c, err := client.DialConn(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// Single round trips.
	if err := c.Put(1, 100); err != nil {
		log.Fatal(err)
	}
	v, found, err := c.Get(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET 1 -> %d (found=%v)\n", v, found)

	// A pipelined load: the server's coalescer gathers the buffered PUT
	// frames into ApplyBatch calls of up to 1024 ops — one lock
	// acquisition each, and one WAL record each on a durable store.
	p := c.Pipeline()
	for i := 0; i < 1000; i++ {
		p.Put(uint64(i)*7, uint64(i))
	}
	res, err := p.Flush(nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res {
		if r.Err != nil {
			log.Fatal(r.Err)
		}
	}

	// A pipelined burst of reads: the GET run becomes a single
	// ApplyBatch, so the store's lock is taken once for the whole run.
	for i := 0; i < 500; i++ {
		p.Get(uint64(i) * 7)
	}
	if res, err = p.Flush(res[:0]); err != nil {
		log.Fatal(err)
	}
	misses := 0
	for _, r := range res {
		if !r.Found {
			misses++
		}
	}
	fmt.Printf("pipelined 500 GETs in one round trip (%d misses)\n", misses)

	// STATS shows both layers: serving counters and the store's uniform
	// Stats — the batch counters prove the coalescing happened.
	st, err := c.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("server: %d ops, %d coalesced batches carrying %d ops\n",
		st.Server.Ops, st.Server.CoalescedBatches, st.Server.CoalescedOps)
	fmt.Printf("store:  %d entries, batch runs insert/lookup/delete = %d/%d/%d, in_sync=%v\n",
		st.Store.Entries, st.Store.InsertBatches, st.Store.LookupBatches,
		st.Store.DeleteBatches, st.Store.InSync)

	// Graceful shutdown: drain in-flight requests, then let the mapper
	// catch up before the store closes.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	store.WaitSync(5 * time.Second)
	fmt.Println("drained and closed")
}
