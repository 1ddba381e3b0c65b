package client

import (
	"fmt"

	"vmshortcut/internal/op"
	"vmshortcut/internal/wire"
)

// Pipeline queues requests on one Conn and sends them in a single write,
// reading all responses back after one round trip. This is how the
// protocol's pipelining is meant to be driven: the server's per-connection
// coalescer turns a flushed run of single-op requests — of any kind — into
// one store batch call, so a deep pipeline pays one syscall, one flush,
// and one routing decision for the whole run.
//
// Results come back in submission order; a mixed batch contributes one
// Result per entry. A Pipeline is reusable after Flush and is not safe
// for concurrent use.
type Pipeline struct {
	c       *Conn
	buf     []byte
	pending []pendingOp
	kinds   []op.Kind // arena of queued mixed batches' kind columns
	mres    op.Results
	ops     int
	err     error // deferred queueing error (oversized mixed batch), reported by Flush
}

// pendingOp records what response decoding one queued request needs —
// the opcode, the element count, and for mixed frames the batch's kind
// column (a range of the pipeline's kinds arena) — plus
// where its frame ends in the request buffer, so Flush can write in
// bounded segments.
type pendingOp struct {
	op     byte
	n      int
	end    int
	kstart int // mixed only: kinds arena range
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

// Len returns the number of queued operations (mixed batch entries
// counted individually).
func (p *Pipeline) Len() int { return p.ops }

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

// MixedBatch accumulates an ordered mix of Get/Put/Del operations for
// submission as ONE wire frame — the client-side face of the serving
// stack's shared operation batch. Where a run of single-op frames pays
// one frame header per op and relies on the server's coalescer, a mixed
// batch frame carries the whole mix in one decode, one store call, and —
// on a durable server — one WAL record appended from the frame's own
// bytes. A MixedBatch is reusable after Reset and is not safe for
// concurrent use.
type MixedBatch struct {
	b op.Batch
}

// Reset empties the batch, retaining its storage.
func (m *MixedBatch) Reset() { m.b.Reset() }

// Len returns the number of queued operations.
func (m *MixedBatch) Len() int { return m.b.Len() }

// Get queues a lookup entry.
func (m *MixedBatch) Get(key uint64) { m.b.Get(key) }

// Put queues an upsert entry.
func (m *MixedBatch) Put(key, value uint64) { m.b.Put(key, value) }

// Del queues a delete entry.
func (m *MixedBatch) Del(key uint64) { m.b.Del(key) }

// Mixed queues m's operations as one MIXEDBATCH frame; it contributes
// m.Len() Results in entry order (Found is presence for Get/Del and
// acceptance for Put; Value is set for Get hits). The batch's contents
// are copied into the pipeline, so m may be reused immediately. Batches
// beyond wire.MaxMixedBatch fail at Flush; an empty batch queues
// nothing.
func (p *Pipeline) Mixed(m *MixedBatch) {
	n := m.b.Len()
	if n == 0 {
		return
	}
	if p.err == nil && n > wire.MaxMixedBatch {
		p.err = fmt.Errorf("client: mixed batch of %d elements exceeds wire.MaxMixedBatch (%d); split it",
			n, wire.MaxMixedBatch)
	}
	if p.err != nil {
		return
	}
	kstart := len(p.kinds)
	p.kinds = append(p.kinds, m.b.Kinds()...)
	p.buf = wire.AppendMixedBatch(p.buf, &m.b)
	p.pending = append(p.pending, pendingOp{op: wire.OpMixedBatch, n: n, end: len(p.buf), kstart: kstart})
	p.ops += n
}

// push records a just-queued single-op frame.
func (p *Pipeline) push(op byte) {
	p.pending = append(p.pending, pendingOp{op: op, n: 1, end: len(p.buf)})
	p.ops++
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
// order. Requests go out in segments of at most flushSegmentBytes (one
// oversized frame is a segment of its own), each segment's responses
// drained before the next is written, so arbitrarily deep pipelines
// cannot deadlock against the server. The pipeline is empty afterwards
// and can be reused, also after an error. An oversized mixed batch fails
// the flush before any byte is written; a transport or framing error
// aborts the flush and kills the Conn.
func (p *Pipeline) Flush(results []Result) ([]Result, error) {
	defer p.reset()
	if p.err != nil {
		return results, p.err
	}
	written := 0
	for i := 0; i < len(p.pending); {
		// Extend the segment while the next frame keeps it under the
		// byte bound; always take at least one frame.
		j := i + 1
		for j < len(p.pending) && p.pending[j].end-written <= flushSegmentBytes {
			j++
		}
		segEnd := p.pending[j-1].end
		if err := p.c.writeAll(p.buf[written:segEnd]); err != nil {
			return results, err
		}
		written = segEnd
		for ; i < j; i++ {
			var err error
			results, err = p.readOne(p.pending[i], results)
			if err != nil {
				return results, err
			}
		}
	}
	return results, nil
}

// reset empties the pipeline, retaining its storage.
func (p *Pipeline) reset() {
	p.buf = p.buf[:0]
	p.pending = p.pending[:0]
	p.kinds = p.kinds[:0]
	p.ops = 0
	p.err = nil
}

func (p *Pipeline) readOne(pd pendingOp, results []Result) ([]Result, error) {
	c := p.c
	tag, payload, err := c.readResp()
	if err != nil {
		return results, err
	}
	if tag == wire.StatusErr || tag == wire.StatusReadOnly || tag == wire.StatusStale {
		// One errored response per request frame; a mixed batch frame
		// fails as a unit, so fan the error out to every entry. The replica
		// refusals land here too: a replica answers a coalesced pipeline
		// per frame, serving the reads and refusing the mutations.
		err := refusalErr(tag)
		if err == nil {
			err = remoteErr(payload)
		}
		for i := 0; i < pd.n; i++ {
			results = append(results, Result{Err: err})
		}
		return results, nil
	}
	switch pd.op {
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
	case wire.OpMixedBatch:
		if tag != wire.StatusOK {
			return results, c.fail(unexpectedStatus(tag))
		}
		kinds := p.kinds[pd.kstart : pd.kstart+pd.n]
		if err := wire.DecodeMixedResults(payload, kinds, &p.mres); err != nil {
			return results, c.fail(err)
		}
		for i := range kinds {
			results = append(results, Result{Found: p.mres.Found[i], Value: p.mres.Vals[i]})
		}
	}
	return results, nil
}

func unexpectedStatus(tag byte) error {
	return fmt.Errorf("client: unexpected status 0x%02x", tag)
}
