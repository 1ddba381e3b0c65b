// Package client is the Go client of the network KV service (package
// server): one connection speaking the length-prefixed binary protocol of
// internal/wire, with single-op round trips and an explicit Pipeline for
// overlapping many requests — single ops or MIXEDBATCH frames — on one
// connection.
//
// Conn and Pipeline are single-goroutine objects: concurrent callers dial
// one Conn each, as the load generator (cmd/ehload) does per worker.
package client

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"vmshortcut/internal/wire"
)

// Stats is the reply of the STATS request: serving-layer counters plus
// the backing store's uniform Stats snapshot.
type Stats = wire.StatsReply

// Conn is one client connection. It is not safe for concurrent use; dial
// one Conn per goroutine.
type Conn struct {
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	readBuf []byte
	reqBuf  []byte
	err     error // first transport/protocol error; the Conn is then dead

	// Get, Put and Del run as a one-entry flush of this pipeline, so they
	// share the pipeline's response decoding.
	one    Pipeline
	oneRes []Result
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
	cn := &Conn{
		c:  c,
		br: bufio.NewReaderSize(c, 64<<10),
		bw: bufio.NewWriterSize(c, 64<<10),
	}
	cn.one.c = cn
	return cn, nil
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

// writeAll sends the request buffer and flushes.
func (c *Conn) writeAll(frames []byte) error {
	if c.err != nil {
		return c.err
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
	c.one.Get(key)
	r, err := c.flushOne()
	return r.Value, r.Found, err
}

// Put upserts (key, value).
func (c *Conn) Put(key, value uint64) error {
	c.one.Put(key, value)
	_, err := c.flushOne()
	return err
}

// Del removes key, reporting whether it was present.
func (c *Conn) Del(key uint64) (found bool, err error) {
	c.one.Del(key)
	r, err := c.flushOne()
	return r.Found, err
}

// flushOne flushes the one request queued on c.one and returns its
// outcome, with a per-operation server error as the error.
func (c *Conn) flushOne() (Result, error) {
	res, err := c.one.Flush(c.oneRes[:0])
	c.oneRes = res
	if err != nil {
		return Result{}, err
	}
	return res[0], res[0].Err
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
	return c.fail(unexpectedStatus(tag))
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
	return Stats{}, c.fail(unexpectedStatus(tag))
}
