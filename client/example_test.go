package client_test

import (
	"context"
	"fmt"
	"log"
	"net"

	"vmshortcut"
	"vmshortcut/client"
	"vmshortcut/server"
)

// ExampleClient starts an in-process KV server over a Shortcut-EH store,
// connects the pooled client, and runs single ops, a mixed batch, and a
// pipelined round trip — the full surface a networked consumer uses.
func ExampleClient() {
	store, err := vmshortcut.Open(vmshortcut.KindShortcutEH, vmshortcut.WithConcurrency(true))
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	srv, err := server.New(server.Config{Store: store})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	cl, err := client.Dial(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// Single round trips.
	if err := cl.Put(1, 100); err != nil {
		log.Fatal(err)
	}
	v, found, err := cl.Get(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("get 1:", v, found)

	// One MIXEDBATCH frame becomes one ApplyBatch on the server; its
	// entries apply in order, so the GETs see the PUTs before them.
	err = cl.Do(func(c *client.Conn) error {
		var m client.MixedBatch
		m.Put(2, 200)
		m.Put(3, 300)
		m.Put(4, 400)
		m.Get(2)
		m.Get(3)
		m.Get(99)
		p := c.Pipeline()
		p.Mixed(&m)
		res, err := p.Flush(nil)
		if err != nil {
			return err
		}
		fmt.Println("batch:", res[3].Value, res[4].Value, res[5].Found)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// A pipeline overlaps requests on one pooled connection; the server
	// coalesces the three single-op frames into one ApplyBatch.
	err = cl.Do(func(c *client.Conn) error {
		p := c.Pipeline()
		p.Get(2)
		p.Get(3)
		p.Del(4)
		res, err := p.Flush(nil)
		if err != nil {
			return err
		}
		fmt.Println("pipeline:", res[0].Value, res[1].Value, res[2].Found)
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Output:
	// get 1: 100 true
	// batch: 200 300 false
	// pipeline: 200 300 true
}
