package server

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"vmshortcut"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/wire"
)

// scriptConn is a net.Conn whose reads deliver a scripted list of chunks,
// one per Read (or less when the caller's buffer is smaller), then io.EOF.
// Writes are collected.
type scriptConn struct {
	net.Conn
	chunks [][]byte
	out    bytes.Buffer
}

func (c *scriptConn) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error)     { return c.out.Write(p) }
func (c *scriptConn) RemoteAddr() net.Addr            { return benchAddr{} }
func (c *scriptConn) SetReadDeadline(time.Time) error { return nil }
func (c *scriptConn) Close() error                    { return nil }

// splitRun is a 32-frame pipelined run whose answers depend on its order —
// PUT, GET, DEL, GET per key — and which leaves the store as it found it.
func splitRun() []byte {
	var run []byte
	for k := uint64(1); k <= 8; k++ {
		run = wire.AppendPut(run, k, k*10)
		run = wire.AppendKey(run, wire.OpGet, k)
		run = wire.AppendKey(run, wire.OpDel, k)
		run = wire.AppendKey(run, wire.OpGet, k)
	}
	return run
}

// serveScript serves one scripted connection to EOF on a fresh,
// instrumented server over store and returns the response bytes and the
// server's counters. It fails the test unless the per-opcode frame counts
// match splitRun's 16 GETs, 8 PUTs and 8 DELs.
func serveScript(t *testing.T, store vmshortcut.Store, chunks [][]byte) ([]byte, wire.ServerCounters) {
	t.Helper()
	srv, err := New(Config{Store: store, Logf: t.Logf, Metrics: NewMetrics(obs.NewRegistry())})
	if err != nil {
		t.Fatal(err)
	}
	c := &scriptConn{chunks: chunks}
	srv.activeConns.Add(1) // as Serve does; serveConn's exit takes it back
	srv.wg.Add(1)
	srv.serveConn(c)
	if f := srv.metrics.obsStats().Frames; len(f) != 3 || f["get"] != 16 || f["put"] != 8 || f["del"] != 8 {
		t.Fatalf("frames by opcode %v, want get 16, put 8, del 8", f)
	}
	return c.out.Bytes(), srv.Counters()
}

// TestSplitDeliveryGathersWhatIsBuffered delivers one 32-frame pipelined
// run whole, one byte per read, and in two reads split at every offset.
// Every delivery must get the same responses in order and count 32 frames
// and 32 ops. The gather takes exactly the complete frames already
// buffered and leaves a torn one for the next read: a split after f
// complete frames (0 < f < 32) runs as batches of f and 32−f, so
// CoalescedOps counts each of the two that holds more than one op.
func TestSplitDeliveryGathersWhatIsBuffered(t *testing.T) {
	store, err := vmshortcut.Open(vmshortcut.KindShortcutEH)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	run := splitRun()
	want, c := serveScript(t, store, [][]byte{bytes.Clone(run)})
	if c.Frames != 32 || c.Ops != 32 || c.CoalescedBatches != 1 || c.CoalescedOps != 32 {
		t.Fatalf("whole run: counters %+v, want one coalesced batch of 32", c)
	}
	check := func(name string, got []byte, c wire.ServerCounters, coalescedOps uint64) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: responses %x, want %x", name, got, want)
		}
		if c.Frames != 32 || c.Ops != 32 || c.CoalescedOps != coalescedOps || c.Errors != 0 {
			t.Fatalf("%s: counters %+v, want 32 frames, 32 ops, %d coalesced ops", name, c, coalescedOps)
		}
	}

	bytewise := make([][]byte, len(run))
	for i := range run {
		bytewise[i] = run[i : i+1 : i+1]
	}
	got, c := serveScript(t, store, bytewise)
	check("one byte per read", got, c, 0)

	// Frame boundaries: PUT frames are 21 bytes, GET and DEL frames 13.
	var ends []int
	for off := 0; off < len(run); {
		_, _, size := wire.NextFrame(run[off:])
		off += size
		ends = append(ends, off)
	}
	for cut := 1; cut < len(run); cut++ {
		f := 0
		for f < len(ends) && ends[f] <= cut {
			f++
		}
		coalesced := uint64(32) // the first read blocks for the rest: one batch
		if f > 0 {
			coalesced = 0
			for _, n := range []int{f, 32 - f} {
				if n > 1 {
					coalesced += uint64(n)
				}
			}
		}
		got, c := serveScript(t, store, [][]byte{bytes.Clone(run[:cut]), bytes.Clone(run[cut:])})
		check(fmt.Sprintf("split at %d", cut), got, c, coalesced)
	}
}
