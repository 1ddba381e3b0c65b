package client

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"

	"vmshortcut/internal/wire"
)

// scriptConn is a net.Conn whose reads deliver a scripted list of chunks,
// one per Read (or less when the caller's buffer is smaller), then io.EOF.
// Writes are discarded.
type scriptConn struct {
	net.Conn
	chunks [][]byte
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

func (c *scriptConn) Write(p []byte) (int, error) { return len(p), nil }

// TestSplitResponsesDecodeAlike feeds one pipeline's responses to Flush
// whole, one byte per read, and in two reads split at every offset: each
// delivery must decode to the same results, in order. The responses carry
// a StatusErr in the middle and an error frame longer than the 64 KiB read
// buffer, which no in-buffer parse can hold. Inside that frame's body,
// where every cut reads the same way, the two-read sweep steps by 257.
func TestSplitResponsesDecodeAlike(t *testing.T) {
	long := strings.Repeat("x", 64<<10+100)
	var stream []byte
	stream = wire.AppendValue(stream, 11)                  // GET hit
	stream = wire.AppendEmpty(stream, wire.StatusNotFound) // GET miss
	stream = wire.AppendEmpty(stream, wire.StatusOK)       // PUT
	stream = wire.AppendError(stream, "boom")              // PUT refused
	stream = wire.AppendEmpty(stream, wire.StatusReadOnly) // DEL on a replica
	stream = wire.AppendEmpty(stream, wire.StatusNotFound) // DEL miss
	longStart := len(stream)
	stream = wire.AppendError(stream, long) // GET refused
	longEnd := len(stream)
	stream = wire.AppendValue(stream, 12) // GET hit
	want := []struct {
		found bool
		value uint64
		err   string
	}{
		{true, 11, ""}, {false, 0, ""}, {true, 0, ""},
		{false, 0, "client: server error: boom"}, {false, 0, ErrReadOnly.Error()},
		{false, 0, ""}, {false, 0, "client: server error: " + long}, {true, 12, ""},
	}

	fc := &scriptConn{}
	c := &Conn{c: fc, br: bufio.NewReaderSize(fc, 64<<10), bw: bufio.NewWriter(fc)}
	p := c.Pipeline()
	var res []Result
	flush := func(name string, chunks ...[]byte) {
		t.Helper()
		fc.chunks = chunks
		c.br.Reset(fc)
		p.Get(1)
		p.Get(2)
		p.Put(3, 3)
		p.Put(4, 4)
		p.Del(5)
		p.Del(6)
		p.Get(7)
		p.Get(8)
		var err error
		if res, err = p.Flush(res[:0]); err != nil {
			t.Fatalf("%s: Flush: %v", name, err)
		}
		if len(res) != len(want) {
			t.Fatalf("%s: %d results, want %d", name, len(res), len(want))
		}
		for i, r := range res {
			w := want[i]
			if r.Found != w.found || r.Value != w.value || (r.Err == nil) != (w.err == "") || r.Err != nil && r.Err.Error() != w.err {
				t.Fatalf("%s: result %d = %.80v, want %.80v", name, i, r, w)
			}
		}
	}

	flush("whole", stream)
	bytewise := make([][]byte, len(stream))
	for i := range stream {
		bytewise[i] = stream[i : i+1 : i+1]
	}
	flush("one byte per read", bytewise...)
	for cut := 1; cut < len(stream); cut++ {
		if cut > longStart+wire.HeaderSize && cut < longEnd-1 && (cut-longStart)%257 != 0 {
			continue
		}
		flush(fmt.Sprintf("split at %d", cut), stream[:cut:cut], stream[cut:])
	}
}
