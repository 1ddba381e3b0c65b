// Package client is the Go client of the network KV service (package
// server): a connection pool over the length-prefixed binary protocol of
// internal/wire, with single-op round trips and an explicit Pipeline for
// overlapping many requests — single ops or MIXEDBATCH frames — on one
// connection.
//
// Client is the concurrency-safe entry point: each call checks a
// connection out of the pool and returns it afterwards, so independent
// goroutines fan out over independent connections. Conn and Pipeline are
// single-goroutine objects — the load generator (cmd/ehload) drives one
// Conn per worker.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"vmshortcut/internal/wire"
)

// samplerSeq decorrelates the sampler seeds of connections opened within
// the same clock tick (ehload opens its whole fleet at once).
var samplerSeq atomic.Uint64

// Stats is the reply of the STATS request: serving-layer counters plus
// the backing store's uniform Stats snapshot.
type Stats = wire.StatsReply

// Conn is one client connection. It is not safe for concurrent use; use
// Client for pooled concurrency, or one Conn per goroutine.
type Conn struct {
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	readBuf []byte
	reqBuf  []byte
	err     error // first transport/protocol error; the Conn is then dead

	// Trace sampling (SetSampling). When the per-write coin flip fires,
	// writeAll prefixes the outgoing frames with one OpTraceCtx envelope,
	// asking the server to record the next request's spans in its flight
	// recorder. sampleThresh is the fire probability scaled to 2^53
	// (0 = sampling off, the default — the wire bytes are then identical
	// to a client predating tracing).
	sampleThresh uint64
	prng         uint64
	lastTraceID  uint64
	traceBuf     []byte
}

// DialConn opens one connection to a server.
func DialConn(addr string) (*Conn, error) {
	return DialConnTimeout(addr, 0)
}

// DialConnTimeout opens one connection, failing after timeout (0 = no
// timeout).
func DialConnTimeout(addr string, timeout time.Duration) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		// Frames are small; latency matters more than segment fill.
		tc.SetNoDelay(true)
	}
	return &Conn{
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}, nil
}

// DialConnRetry dials until the server accepts or the timeout elapses,
// backing off briefly between attempts. It is the "wait for the server to
// come up" helper: a durable server recovers its keyspace before
// listening, so the first successful dial implies recovery has finished —
// cmd/ehload's restart check and scripts banking on that use this instead
// of sleeping.
func DialConnRetry(addr string, timeout time.Duration) (*Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := DialConnTimeout(addr, time.Second)
		if err == nil {
			return c, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("client: %s not up after %v: %w", addr, timeout, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// SetSampling sets this connection's trace-sampling probability in
// [0, 1]. While non-zero, each write may be prefixed by a trace-context
// envelope (wire.OpTraceCtx) that the server attaches to the following
// request frame; the server must understand the envelope, so only enable
// sampling against servers of at least this protocol revision — an old
// server fails the connection with an unknown-opcode error. 0 (the
// default) restores the envelope-free byte stream.
func (c *Conn) SetSampling(rate float64) {
	if rate <= 0 {
		c.sampleThresh = 0
		return
	}
	if rate > 1 {
		rate = 1
	}
	c.sampleThresh = uint64(rate * (1 << 53))
	if c.prng == 0 {
		// Seed once per Conn; splitmix-style scramble so connections
		// opened in the same nanosecond still diverge.
		seed := uint64(time.Now().UnixNano()) + samplerSeq.Add(1)*0x9e3779b97f4a7c15
		seed ^= seed >> 33
		seed *= 0xff51afd7ed558ccd
		seed ^= seed >> 33
		if seed == 0 {
			seed = 1
		}
		c.prng = seed
	}
}

// LastTraceID returns the trace ID of the most recent sampled write on
// this connection (0 = none yet). Load generators log it so an operator
// can look a specific slow run up at the server's /tracez.
func (c *Conn) LastTraceID() uint64 { return c.lastTraceID }

// rand64 is a xorshift64 step over the Conn's sampler state.
func (c *Conn) rand64() uint64 {
	x := c.prng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.prng = x
	return x
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// Err returns the sticky error that killed the connection, if any.
func (c *Conn) Err() error { return c.err }

func (c *Conn) fail(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

// writeAll sends the request buffer and flushes. With sampling enabled
// and the coin flip firing, the frames are prefixed by one trace-context
// envelope, which the server attaches to the first frame that follows —
// for a pipelined segment that frame seeds the coalesced batch, so the
// whole batch is traced.
func (c *Conn) writeAll(frames []byte) error {
	if c.err != nil {
		return c.err
	}
	if c.sampleThresh != 0 && c.rand64()>>11 < c.sampleThresh {
		id := c.rand64()
		if id == 0 {
			id = 1
		}
		c.lastTraceID = id
		c.traceBuf = wire.AppendTraceCtx(c.traceBuf[:0], id, wire.TraceFlagSampled)
		if _, err := c.bw.Write(c.traceBuf); err != nil {
			return c.fail(err)
		}
	}
	if _, err := c.bw.Write(frames); err != nil {
		return c.fail(err)
	}
	if err := c.bw.Flush(); err != nil {
		return c.fail(err)
	}
	return nil
}

// readResp reads one response frame. The payload is valid until the next
// read on this Conn.
func (c *Conn) readResp() (byte, []byte, error) {
	if c.err != nil {
		return 0, nil, c.err
	}
	tag, payload, buf, err := wire.ReadFrame(c.br, c.readBuf)
	c.readBuf = buf
	if err != nil {
		return 0, nil, c.fail(err)
	}
	return tag, payload, nil
}

// remoteErr converts a StatusErr payload into an error. Store-level
// errors arrive this way with the stream still aligned, so they do not
// kill the Conn.
func remoteErr(payload []byte) error {
	return fmt.Errorf("client: server error: %s", payload)
}

// ErrReadOnly reports a mutation sent to a replica: the server applies
// writes only from its primary until it is promoted. The caller should
// retry against the primary (or promote this server).
var ErrReadOnly = errors.New("client: server is a read-only replica")

// ErrStale reports a read rejected by a replica that has not heard from
// its primary within its staleness bound: the data it would serve may be
// arbitrarily far behind.
var ErrStale = errors.New("client: replica is stale beyond its staleness bound")

// refusalErr maps the replica refusal statuses onto their sentinel
// errors (nil for any other tag). Like StatusErr these arrive with the
// stream aligned and do not kill the Conn.
func refusalErr(tag byte) error {
	switch tag {
	case wire.StatusReadOnly:
		return ErrReadOnly
	case wire.StatusStale:
		return ErrStale
	}
	return nil
}

// Get looks up key.
func (c *Conn) Get(key uint64) (value uint64, found bool, err error) {
	c.reqBuf = wire.AppendKey(c.reqBuf[:0], wire.OpGet, key)
	if err := c.writeAll(c.reqBuf); err != nil {
		return 0, false, err
	}
	tag, payload, err := c.readResp()
	if err != nil {
		return 0, false, err
	}
	switch tag {
	case wire.StatusOK:
		if len(payload) < 8 {
			return 0, false, c.fail(fmt.Errorf("client: GET response payload %d bytes, want 8", len(payload)))
		}
		return wire.Uint64(payload, 0), true, nil
	case wire.StatusNotFound:
		return 0, false, nil
	case wire.StatusErr:
		return 0, false, remoteErr(payload)
	case wire.StatusReadOnly, wire.StatusStale:
		return 0, false, refusalErr(tag)
	}
	return 0, false, c.fail(fmt.Errorf("client: unexpected status 0x%02x", tag))
}

// Put upserts (key, value).
func (c *Conn) Put(key, value uint64) error {
	c.reqBuf = wire.AppendPut(c.reqBuf[:0], key, value)
	if err := c.writeAll(c.reqBuf); err != nil {
		return err
	}
	return c.readAck()
}

// Del removes key, reporting whether it was present.
func (c *Conn) Del(key uint64) (found bool, err error) {
	c.reqBuf = wire.AppendKey(c.reqBuf[:0], wire.OpDel, key)
	if err := c.writeAll(c.reqBuf); err != nil {
		return false, err
	}
	tag, payload, err := c.readResp()
	if err != nil {
		return false, err
	}
	switch tag {
	case wire.StatusOK:
		return true, nil
	case wire.StatusNotFound:
		return false, nil
	case wire.StatusErr:
		return false, remoteErr(payload)
	case wire.StatusReadOnly, wire.StatusStale:
		return false, refusalErr(tag)
	}
	return false, c.fail(fmt.Errorf("client: unexpected status 0x%02x", tag))
}

// readAck consumes an empty OK / error response.
func (c *Conn) readAck() error {
	tag, payload, err := c.readResp()
	if err != nil {
		return err
	}
	switch tag {
	case wire.StatusOK:
		return nil
	case wire.StatusErr:
		return remoteErr(payload)
	case wire.StatusReadOnly, wire.StatusStale:
		return refusalErr(tag)
	}
	return c.fail(fmt.Errorf("client: unexpected status 0x%02x", tag))
}

// Promote asks a replica server to become the primary: it detaches from
// its old primary and starts accepting writes. Promoting a server that is
// already a primary fails with a server error.
func (c *Conn) Promote() error {
	c.reqBuf = wire.AppendEmpty(c.reqBuf[:0], wire.OpPromote)
	if err := c.writeAll(c.reqBuf); err != nil {
		return err
	}
	return c.readAck()
}

// Hijack hands over the connection's transport and its buffered
// reader/writer, leaving the Conn dead (every later call fails). The
// repl package uses it to turn a dialed connection — DialConnRetry's
// wait-for-recovery semantics included — into a replication stream after
// sending the REPLSYNC handshake. No request may be in flight.
func (c *Conn) Hijack() (net.Conn, *bufio.Reader, *bufio.Writer) {
	c.err = errors.New("client: connection hijacked")
	return c.c, c.br, c.bw
}

// Stats fetches the server's counters and the store's Stats snapshot.
func (c *Conn) Stats() (Stats, error) {
	c.reqBuf = wire.AppendEmpty(c.reqBuf[:0], wire.OpStats)
	if err := c.writeAll(c.reqBuf); err != nil {
		return Stats{}, err
	}
	tag, payload, err := c.readResp()
	if err != nil {
		return Stats{}, err
	}
	switch tag {
	case wire.StatusErr:
		return Stats{}, remoteErr(payload)
	case wire.StatusOK:
		var st Stats
		if err := json.Unmarshal(payload, &st); err != nil {
			return Stats{}, c.fail(fmt.Errorf("client: decoding stats: %w", err))
		}
		return st, nil
	}
	return Stats{}, c.fail(fmt.Errorf("client: unexpected status 0x%02x", tag))
}
