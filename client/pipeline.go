package client

import (
	"fmt"

	"vmshortcut/internal/wire"
)

// Pipeline queues requests on one Conn and sends them in a single write,
// reading all responses back after one round trip. This is how the
// protocol's pipelining is meant to be driven: the server's per-connection
// coalescer turns a flushed run of single-op requests — of any kind — into
// one store batch call (on a durable store, one WAL record), so a deep
// pipeline pays one syscall, one flush, and one routing decision for the
// whole run.
//
// Results come back in submission order, one per queued operation. Flush
// decodes every response already in the connection's read buffer in
// place, and blocks on the connection only when no complete response is
// buffered, so a run's responses cost one read per arriving segment, not
// one per response. A Pipeline is reusable after Flush and is not safe
// for concurrent use.
type Pipeline struct {
	c       *Conn
	buf     []byte
	pending []pendingOp
}

// pendingOp records the opcode one queued request's response decoding
// needs, plus where its frame ends in the request buffer, so Flush can
// write in bounded segments.
type pendingOp struct {
	op  byte
	end int
}

// Pipeline returns a pipeline over this connection. Do not interleave
// direct Conn calls with an unflushed pipeline.
func (c *Conn) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Result is the outcome of one queued operation.
type Result struct {
	// Found reports presence for GET and DEL; it is true for an
	// acknowledged PUT.
	Found bool
	// Value is the value of a GET hit.
	Value uint64
	// Err is the per-operation server error, if any. Transport errors
	// abort the whole Flush instead.
	Err error
}

// Len returns the number of queued operations.
func (p *Pipeline) Len() int { return len(p.pending) }

// Get queues a lookup.
func (p *Pipeline) Get(key uint64) {
	p.buf = wire.AppendKey(p.buf, wire.OpGet, key)
	p.push(wire.OpGet)
}

// Put queues an upsert.
func (p *Pipeline) Put(key, value uint64) {
	p.buf = wire.AppendPut(p.buf, key, value)
	p.push(wire.OpPut)
}

// Del queues a delete.
func (p *Pipeline) Del(key uint64) {
	p.buf = wire.AppendKey(p.buf, wire.OpDel, key)
	p.push(wire.OpDel)
}

// push records a just-queued single-op frame.
func (p *Pipeline) push(op byte) {
	p.pending = append(p.pending, pendingOp{op: op, end: len(p.buf)})
}

// flushSegmentBytes bounds how many request bytes Flush sends before
// draining the corresponding responses. Without the bound, a deep enough
// pipeline deadlocks: the server stops reading once its response buffers
// fill against a client that is still writing. One segment stays well
// under the combined socket buffers, so the server can always finish
// answering a segment while the client reads.
const flushSegmentBytes = 64 << 10

// Flush sends every queued request and reads all responses, appending
// one Result per operation to results (which may be nil) in submission
// order. Requests go out in segments of at most flushSegmentBytes, each
// segment's responses drained before the next is written, so arbitrarily
// deep pipelines cannot deadlock against the server. The pipeline is
// empty afterwards and can be reused, also after an error. A transport or
// framing error aborts the flush and kills the Conn.
func (p *Pipeline) Flush(results []Result) ([]Result, error) {
	defer p.reset()
	written := 0
	for i := 0; i < len(p.pending); {
		// Extend the segment while the next frame keeps it under the
		// byte bound.
		j := i + 1
		for j < len(p.pending) && p.pending[j].end-written <= flushSegmentBytes {
			j++
		}
		segEnd := p.pending[j-1].end
		if err := p.c.writeAll(p.buf[written:segEnd]); err != nil {
			return results, err
		}
		written = segEnd
		var err error
		if results, err = p.decode(p.pending[i:j], results); err != nil {
			return results, err
		}
		i = j
	}
	return results, nil
}

// decode reads the responses to pend in order, appending their results.
// Complete responses already buffered are parsed in place and consumed
// with one Discard; only when none is buffered does it block, reading one
// response through readResp — which also serves a response larger than
// the read buffer and reports a malformed length.
func (p *Pipeline) decode(pend []pendingOp, results []Result) ([]Result, error) {
	c := p.c
	for len(pend) > 0 {
		buf, _ := c.br.Peek(c.br.Buffered())
		off := 0
		for len(pend) > 0 {
			tag, payload, size := wire.NextFrame(buf[off:])
			if size == 0 {
				break
			}
			var err error
			if results, err = p.result(pend[0].op, tag, payload, results); err != nil {
				return results, err
			}
			off += size
			pend = pend[1:]
		}
		c.br.Discard(off)
		if off > 0 || len(pend) == 0 {
			continue
		}
		tag, payload, err := c.readResp()
		if err != nil {
			return results, err
		}
		if results, err = p.result(pend[0].op, tag, payload, results); err != nil {
			return results, err
		}
		pend = pend[1:]
	}
	return results, nil
}

// reset empties the pipeline, retaining its storage.
func (p *Pipeline) reset() {
	p.buf = p.buf[:0]
	p.pending = p.pending[:0]
}

// result appends the Result of one response to a request of opcode op.
// payload may alias the read buffer; nothing retains it.
func (p *Pipeline) result(op, tag byte, payload []byte, results []Result) ([]Result, error) {
	c := p.c
	if tag == wire.StatusErr || tag == wire.StatusReadOnly || tag == wire.StatusStale {
		// One errored response per request frame. The replica refusals
		// land here too: a replica answers a coalesced pipeline per frame,
		// serving the reads and refusing the mutations.
		err := refusalErr(tag)
		if err == nil {
			err = remoteErr(payload)
		}
		return append(results, Result{Err: err}), nil
	}
	switch op {
	case wire.OpGet:
		switch tag {
		case wire.StatusOK:
			if len(payload) < 8 {
				return results, c.fail(fmt.Errorf("client: GET response payload %d bytes, want 8", len(payload)))
			}
			results = append(results, Result{Found: true, Value: wire.Uint64(payload, 0)})
		case wire.StatusNotFound:
			results = append(results, Result{})
		default:
			return results, c.fail(unexpectedStatus(tag))
		}
	case wire.OpPut:
		if tag != wire.StatusOK {
			return results, c.fail(unexpectedStatus(tag))
		}
		results = append(results, Result{Found: true})
	case wire.OpDel:
		switch tag {
		case wire.StatusOK:
			results = append(results, Result{Found: true})
		case wire.StatusNotFound:
			results = append(results, Result{})
		default:
			return results, c.fail(unexpectedStatus(tag))
		}
	}
	return results, nil
}

func unexpectedStatus(tag byte) error {
	return fmt.Errorf("client: unexpected status 0x%02x", tag)
}
