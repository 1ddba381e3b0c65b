// Package server turns a vmshortcut.Store into a network KV service: a
// TCP server speaking the compact length-prefixed binary protocol of
// internal/wire (GET/PUT/DEL/STATS) with full pipelining.
//
// The serving layer is built around the same observation as the store's
// batch API: per-operation overhead — here a syscall, a frame decode, and
// a routing decision per request — dominates small key-value ops, and
// batching amortizes it. Each connection runs a coalescer: the pipelined
// single-op requests of ANY kind already buffered on the connection are
// gathered in request order into one mixed operation batch
// (internal/op.Batch, the representation every layer below shares) and
// executed as ONE Store.ApplyBatch call: one lock acquisition, one
// sharded fan-out pass, and — on a durable store — one WAL record.
// Responses are written in request order, so clients cannot observe the
// coalescing.
//
// Error fan-out: a coalesced batch that fails — a rejected insert, a
// closed store, a log append failure — fails as a unit: every entry
// gathered into it is answered with StatusErr, because on a durable store
// a partially acknowledged batch could ack a mutation whose log record
// was never written.
//
// Shutdown drains: accepting stops, connections finish every request that
// has already arrived, and pending responses are flushed before the
// connections close.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"vmshortcut"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/op"
	"vmshortcut/internal/wire"
)

// maxBatch caps how many pipelined single-op requests one coalesced store
// call may carry.
const maxBatch = 1024

// Config configures a Server. Store is the only required field.
type Config struct {
	// Store answers every request. The server does not close it: the
	// caller owns the store's lifecycle (cmd/ehserver closes it after
	// Shutdown has drained). It must be safe for concurrent use
	// (WithConcurrency or WithShards) when more than one connection is
	// expected.
	//
	// Durability rides on the store, not the server: with a store opened
	// via WithWAL, every mutating ApplyBatch returns only after the
	// mutation is logged (and, under FsyncAlways, fsynced), and the
	// server writes a response only after the store call returns — so a
	// client that has read its ack holds a durable write, and the
	// coalescer's batching makes that one group-committed fsync per
	// gathered batch rather than per op.
	Store vmshortcut.Store

	// Logf receives accept/connection errors; nil discards them.
	Logf func(format string, args ...any)

	// Repl, when non-nil, makes this server a replication primary: a
	// connection that sends REPLSYNC is handed over to Repl.ServeConn and
	// becomes a record stream, and — when Repl.SyncMode reports true —
	// every mutation's acknowledgement is held until a connected follower
	// acknowledged it (Repl.WaitShipped). Implemented by repl.Source.
	//
	// Assign only a concrete non-nil value: a typed-nil interface here
	// would pass the nil checks and panic on first use.
	Repl ReplSource

	// Replica, when non-nil, makes this server a read replica: mutations
	// are refused with StatusReadOnly until Replica.WritesAllowed (a
	// promoted replica serves writes), reads are refused with StatusStale
	// while Replica.Stale (the replica lost its primary beyond its
	// staleness bound), and an OpPromote frame triggers
	// Replica.Promote. Implemented by repl.Follower.
	Replica Replica

	// Metrics, when non-nil, enables the observability layer: per-stage
	// latency histograms, per-opcode frame counters, and render-time
	// bindings for the server's own counters in the Metrics' registry
	// (served by the admin listener's /metrics and /statsz). The request
	// path records into pre-registered series with atomic adds only — no
	// allocation per op. Nil disables all instrumentation at zero cost.
	Metrics *Metrics

	// SlowOp is the slow-op log threshold: a batch whose end-to-end
	// server time (StageTotal) meets or exceeds it emits one structured
	// log line with the per-stage breakdown, rate-limited (and counted in
	// eh_slow_ops_total, unlimited). 0 disables. Requires Metrics.
	SlowOp time.Duration
}

// ReplSource is the primary side of replication as the server sees it:
// a stream handler for follower connections plus the synchronous-
// replication write gate. Implemented by repl.Source; declared here so
// the server does not depend on the repl package.
type ReplSource interface {
	// ServeConn runs a replication stream on a connection whose REPLSYNC
	// handshake requested records after fromLSN. The server's request
	// loop has exited; ServeConn owns the connection's traffic until it
	// returns, but must not close the connection (the server does).
	ServeConn(c net.Conn, br *bufio.Reader, bw *bufio.Writer, fromLSN uint64) error
	// SyncMode reports synchronous replication; when true the server
	// calls WaitShipped after each mutation and before its response.
	SyncMode() bool
	// WaitShipped blocks until a connected follower acknowledged lsn,
	// degrading per its own policy; it must not block unboundedly.
	WaitShipped(lsn uint64) bool
	// LastLSN is the log position to wait for after a mutation.
	LastLSN() uint64
	// Counters snapshots the primary-side stats section.
	Counters() *wire.PrimaryReplCounters
}

// Replica is the follower side of replication as the server sees it:
// the gates that turn a server into a read replica, and promotion.
// Implemented by repl.Follower; declared here so the server does not
// depend on the repl package.
type Replica interface {
	// WritesAllowed reports whether mutations may be served; false until
	// the replica is promoted.
	WritesAllowed() bool
	// Stale reports whether reads must be refused because the primary
	// has been silent beyond the configured staleness bound.
	Stale() bool
	// Promote stops replication and returns the last applied primary
	// LSN; after it returns, WritesAllowed must report true.
	Promote() uint64
	// Counters snapshots the replica-side stats section.
	Counters() *wire.ReplicaReplCounters
}

// Server serves the wire protocol from a Store. Create with New, start
// with Serve or ListenAndServe, stop with Shutdown (graceful) or Close.
type Server struct {
	cfg     Config
	store   vmshortcut.Store
	metrics *Metrics

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	draining atomic.Bool
	closed   atomic.Bool

	activeConns      atomic.Int64
	totalConns       atomic.Uint64
	ops              atomic.Uint64
	frames           atomic.Uint64
	coalescedBatches atomic.Uint64
	coalescedOps     atomic.Uint64
	errors           atomic.Uint64
	readOnlyRejects  atomic.Uint64
	staleRejects     atomic.Uint64
}

// gateState is what the replica gates allow a request to do right now.
type gateState int

const (
	// gateOpen serves everything: not a replica, or a promoted one.
	gateOpen gateState = iota
	// gateReadOnly serves reads and refuses mutations (StatusReadOnly).
	gateReadOnly
	// gateStale refuses reads too (StatusStale): the primary has been
	// silent beyond the replica's staleness bound, so even reads could
	// be arbitrarily old. Mutations still answer StatusReadOnly — the
	// more actionable refusal.
	gateStale
)

// gate reports what the current request may do on this server.
func (s *Server) gate() gateState {
	rp := s.cfg.Replica
	if rp == nil || rp.WritesAllowed() {
		return gateOpen
	}
	if rp.Stale() {
		return gateStale
	}
	return gateReadOnly
}

// timedWaitShipped is the synchronous-replication write gate: after a
// durable mutation, hold its acknowledgement until a connected follower
// also has it. The wait degrades (per the source's policy) rather than
// stalling the write path forever. It is recorded as StageReplAck when
// instrumentation is on and the gate actually engages.
func (st *connState) timedWaitShipped() {
	rs := st.srv.cfg.Repl
	if rs == nil || !rs.SyncMode() {
		return
	}
	var t0 time.Time
	if st.instr {
		t0 = time.Now()
	}
	rs.WaitShipped(rs.LastLSN())
	if st.instr {
		st.trace.Set(obs.StageReplAck, time.Since(t0))
	}
}

// New creates a Server for cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	s := &Server{cfg: cfg, store: cfg.Store, metrics: cfg.Metrics, conns: map[net.Conn]struct{}{}}
	if s.metrics != nil {
		s.metrics.bindServer(s)
	}
	return s, nil
}

// Ready reports whether the server should receive traffic: false while
// draining, and false on a replica whose reads are stale-gated (the
// primary has been silent past the staleness bound). This is what the
// admin listener's /readyz serves.
func (s *Server) Ready() bool {
	return !s.draining.Load() && s.gate() != gateStale
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// ListenAndServe listens on addr and serves until Shutdown or Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Shutdown, Close, or a fatal
// accept error. It blocks; the returned error is nil after a clean stop.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already shut down")
	}
	s.ln = ln
	s.mu.Unlock()

	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		// Register and wg.Add under the same lock Shutdown snapshots
		// under, so its wg.Wait can never miss a just-accepted conn.
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.totalConns.Add(1)
		s.activeConns.Add(1)
		go s.serveConn(c)
	}
}

// Addr returns the listener's address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops accepting and drains gracefully: every connection
// finishes the requests that have already arrived (including everything
// pipelined in its read buffer), flushes its responses, and closes. A
// request half-received when the deadline fires is dropped with its
// connection. If ctx expires first, remaining connections are closed
// forcibly and ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	// Unblock handlers parked in a read: the poked deadline makes the
	// read fail with a timeout, which the handler treats as "drain what
	// is buffered, then exit".
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeConns()
		<-done
		return ctx.Err()
	}
}

// Close stops the server immediately: the listener and every connection
// close without draining. Prefer Shutdown.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.closed.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.mu.Unlock()
	s.closeConns()
	s.wg.Wait()
	return nil
}

func (s *Server) closeConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		c.Close()
	}
}

// Counters snapshots the serving-layer counters into a struct in one
// pass of atomic loads.
//
// Consistency contract: each field is individually exact and monotonic
// (every load is atomic, and every counter only increases; ActiveConns
// is the one gauge and may go down), but the struct is NOT a consistent
// cross-field cut — the counters are read one after another while
// traffic continues, so related fields can disagree transiently. A
// snapshot taken mid-batch may, for example, show CoalescedOps already
// including a batch whose Ops increment it does not yet include, or
// Frames ahead of Ops. Consumers that derive rates must difference two
// snapshots field-by-field (sound, because each field is monotonic) and
// must not assume cross-field identities like CoalescedOps ≤ Ops hold
// exactly at any instant.
func (s *Server) Counters() wire.ServerCounters {
	var c wire.ServerCounters
	c.ActiveConns = uint64(s.activeConns.Load())
	c.TotalConns = s.totalConns.Load()
	c.Ops = s.ops.Load()
	c.Frames = s.frames.Load()
	c.CoalescedBatches = s.coalescedBatches.Load()
	c.CoalescedOps = s.coalescedOps.Load()
	c.Errors = s.errors.Load()
	c.ReadOnlyRejects = s.readOnlyRejects.Load()
	c.StaleRejects = s.staleRejects.Load()
	return c
}

// connState is the per-connection working set: buffered reader/writer,
// the reusable frame payload buffer, and the coalescer's operation batch
// and result arenas — all reused across requests so the steady-state
// request path does not allocate.
type connState struct {
	srv     *Server
	c       net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	readBuf []byte
	batch   op.Batch
	res     op.Results
	resp    []byte
	// gets/gres are the read-only gate's side batch: the GET entries of a
	// gathered batch that mixes reads with refused mutations.
	gets op.Batch
	gres op.Results
	// drainBroken is set when Shutdown's deadline poke interrupted the
	// coalescer mid-frame: the gathered complete requests are still
	// answered, but the stream is no longer frame-aligned, so the
	// connection must close right after.
	drainBroken bool

	// Observability (instr is set once, from Config.Metrics != nil):
	// trace collects the current batch's per-stage durations — it is
	// installed on the batch so the durable layer can fill its stages —
	// start is when the current frame finished reading, and traced marks
	// a loop iteration that executed a store batch (stage histograms
	// only make sense for those).
	instr  bool
	traced bool
	start  time.Time
	trace  obs.Trace
}

// serveConn runs one connection's request loop until EOF, a protocol
// error, or drain.
func (s *Server) serveConn(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.activeConns.Add(-1)
		s.wg.Done()
	}()
	st := &connState{
		srv:   s,
		c:     c,
		br:    bufio.NewReaderSize(c, 64<<10),
		bw:    bufio.NewWriterSize(c, 64<<10),
		instr: s.metrics != nil,
	}
	if st.instr {
		// The trace rides on the batch so layers that only see the batch
		// (the durable store) can fill their stages; installed once — the
		// batch's Reset keeps it.
		st.batch.SetTrace(&st.trace)
	}
	for {
		tag, payload, buf, err := wire.ReadFrame(st.br, st.readBuf)
		st.readBuf = buf
		if err != nil {
			// A drain poke surfaces as a timeout; everything the client
			// had pipelined is already processed (the loop drains the
			// buffer before blocking), so flush and exit.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && s.draining.Load() {
				st.bw.Flush()
				return
			}
			if !isClosedErr(err) {
				s.logf("server: conn %s: %v", c.RemoteAddr(), err)
			}
			return
		}
		s.frames.Add(1)
		if st.instr {
			st.start = time.Now()
			st.trace.Reset()
			st.traced = false
			s.metrics.countFrame(tag)
		}
		st.resp = st.resp[:0]
		switch tag {
		case wire.OpGet, wire.OpPut, wire.OpDel:
			err = st.singles(tag, payload)
		case wire.OpStats:
			err = st.statsReply()
		case wire.OpReplSync:
			// The connection leaves the request/response regime for good:
			// replStream runs it as a replication stream until it ends,
			// and serveConn's defer closes it.
			st.replStream(payload)
			return
		case wire.OpPromote:
			err = st.promoteReply()
		default:
			err = fmt.Errorf("unknown opcode 0x%02x", tag)
		}
		if err != nil {
			// Malformed frame: the stream can no longer be trusted to be
			// frame-aligned. Answer with an error frame and close.
			s.errors.Add(1)
			st.bw.Write(wire.AppendError(st.resp[:0], err.Error()))
			st.bw.Flush()
			s.logf("server: conn %s: %v", c.RemoteAddr(), err)
			return
		}
		// Reply write, then flush when the pipeline is (momentarily)
		// empty — batching the flush across pipelined requests is the
		// write-side half of the amortization — or when the drain broke
		// the stream. The whole write+flush span is StageReplyWrite.
		var wstart time.Time
		if st.instr {
			wstart = time.Now()
		}
		_, werr := st.bw.Write(st.resp)
		flushed := false
		if werr == nil && (st.drainBroken || st.br.Buffered() == 0) {
			werr = st.bw.Flush()
			flushed = true
		}
		if st.instr && st.traced {
			st.trace.Set(obs.StageReplyWrite, time.Since(wstart))
			st.trace.Set(obs.StageTotal, time.Since(st.start))
			s.finishBatch(st)
		}
		if werr != nil || st.drainBroken {
			return
		}
		if flushed && s.draining.Load() {
			return
		}
	}
}

// finishBatch folds a finished batch's trace into the stage histograms,
// bumps the per-kind op counters, and applies the slow-op threshold. Only
// called with instrumentation on and for iterations that executed a
// store batch.
func (s *Server) finishBatch(st *connState) {
	m := s.metrics
	m.pipeline.RecordTrace(&st.trace)
	m.countApplied(st.batch.Gets(), st.batch.Puts(), st.batch.Dels())
	total := time.Duration(st.trace.Get(obs.StageTotal))
	if s.cfg.SlowOp > 0 && total >= s.cfg.SlowOp {
		m.slowOp(s, st.c.RemoteAddr().String(), st.batch.Len(), total, &st.trace)
	}
}

// singles handles a single-op request frame and coalesces: every
// pipelined single-op frame already buffered — GET, PUT, and DEL alike —
// is gathered in request order (up to maxBatch) into one mixed operation
// batch and executed as ONE ApplyBatch call. Responses are appended in
// request order, so the wire contract is indistinguishable from serial
// execution; a kind switch in the pipeline does not break the batch.
func (st *connState) singles(tag byte, payload []byte) error {
	var t0 time.Time
	if st.instr {
		st.traced = true
		t0 = time.Now()
	}
	st.batch.Reset()
	if err := st.appendSingle(tag, payload); err != nil {
		return err
	}
	if st.instr {
		// The first frame's decode is StageDecode; the gather loop below,
		// which reads the further pipelined frames, is StageCoalesce.
		now := time.Now()
		st.trace.Set(obs.StageDecode, now.Sub(t0))
		t0 = now
	}
	for st.batch.Len() < maxBatch && st.peekSingle() {
		tag, p, buf, err := wire.ReadFrame(st.br, st.readBuf)
		st.readBuf = buf
		if err != nil {
			// Shutdown's deadline poke can land while a frame's body is
			// still in flight: the header was consumed, so the stream is
			// broken — but the requests gathered so far are complete and
			// must still be answered before the connection closes.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() && st.srv.draining.Load() {
				st.drainBroken = true
				break
			}
			return fmt.Errorf("reading pipelined frame: %w", err)
		}
		st.srv.frames.Add(1)
		if st.instr {
			st.srv.metrics.countFrame(tag)
		}
		if err := st.appendSingle(tag, p); err != nil {
			return err
		}
	}

	n := st.batch.Len()
	st.srv.ops.Add(uint64(n))
	if n > 1 {
		st.srv.coalescedBatches.Add(1)
		st.srv.coalescedOps.Add(uint64(n))
		if st.instr {
			st.trace.Set(obs.StageCoalesce, time.Since(t0))
		}
	}
	if g := st.srv.gate(); g == gateStale || (g == gateReadOnly && st.batch.Mutations() > 0) {
		return st.gatedSingles(g)
	}
	if st.instr {
		t0 = time.Now()
	}
	err := st.srv.store.ApplyBatch(&st.batch, &st.res)
	if st.instr && st.trace.Get(obs.StageApply) == 0 {
		// The durable layer splits its span into StageApply and
		// StageWALAppend through the batch's trace; when it did not run
		// (non-durable store, or a pure-read batch it passes through),
		// the whole store call is the apply stage.
		st.trace.Set(obs.StageApply, time.Since(t0))
	}
	if err != nil {
		// Unit failure: nothing in the batch may be acknowledged (see the
		// package comment), so every gathered request answers the error.
		st.srv.errors.Add(uint64(n))
		for i := 0; i < n; i++ {
			st.resp = wire.AppendError(st.resp, err.Error())
		}
		return nil
	}
	if st.batch.Mutations() > 0 {
		st.timedWaitShipped()
	}
	for i, kind := range st.batch.Kinds() {
		switch kind {
		case op.Get:
			if st.res.Found[i] {
				st.resp = wire.AppendValue(st.resp, st.res.Vals[i])
			} else {
				st.resp = wire.AppendEmpty(st.resp, wire.StatusNotFound)
			}
		case op.Put:
			st.resp = wire.AppendEmpty(st.resp, wire.StatusOK)
		case op.Del:
			if st.res.Found[i] {
				st.resp = wire.AppendEmpty(st.resp, wire.StatusOK)
			} else {
				st.resp = wire.AppendEmpty(st.resp, wire.StatusNotFound)
			}
		}
	}
	return nil
}

// gatedSingles answers a gathered singles batch on an unpromoted
// replica. Under the read-only gate, the GET entries are served through
// a side reads-only batch — reads are what replicas are for — and each
// mutation answers StatusReadOnly individually, preserving response
// order; under the stale gate the reads are refused too (StatusStale).
func (st *connState) gatedSingles(g gateState) error {
	if g == gateStale {
		for _, kind := range st.batch.Kinds() {
			if kind == op.Get {
				st.srv.staleRejects.Add(1)
				st.resp = wire.AppendEmpty(st.resp, wire.StatusStale)
			} else {
				st.srv.readOnlyRejects.Add(1)
				st.resp = wire.AppendEmpty(st.resp, wire.StatusReadOnly)
			}
		}
		return nil
	}
	st.gets.Reset()
	keys := st.batch.Keys()
	for i, kind := range st.batch.Kinds() {
		if kind == op.Get {
			st.gets.Get(keys[i])
		}
	}
	var gerr error
	if st.gets.Len() > 0 {
		gerr = st.srv.store.ApplyBatch(&st.gets, &st.gres)
	}
	gi := 0
	for _, kind := range st.batch.Kinds() {
		if kind != op.Get {
			st.srv.readOnlyRejects.Add(1)
			st.resp = wire.AppendEmpty(st.resp, wire.StatusReadOnly)
			continue
		}
		switch {
		case gerr != nil:
			st.srv.errors.Add(1)
			st.resp = wire.AppendError(st.resp, gerr.Error())
		case st.gres.Found[gi]:
			st.resp = wire.AppendValue(st.resp, st.gres.Vals[gi])
		default:
			st.resp = wire.AppendEmpty(st.resp, wire.StatusNotFound)
		}
		gi++
	}
	return nil
}

func (st *connState) appendSingle(tag byte, payload []byte) error {
	want := 8
	if tag == wire.OpPut {
		want = 16
	}
	if len(payload) != want {
		return fmt.Errorf("opcode 0x%02x payload %d bytes, want %d", tag, len(payload), want)
	}
	switch tag {
	case wire.OpGet:
		st.batch.Get(wire.Uint64(payload, 0))
	case wire.OpPut:
		st.batch.Put(wire.Uint64(payload, 0), wire.Uint64(payload, 8))
	case wire.OpDel:
		st.batch.Del(wire.Uint64(payload, 0))
	}
	return nil
}

// peekSingle reports whether the next buffered frame is another
// single-op request (any of GET/PUT/DEL — the coalescer gathers across
// kinds). It only inspects what is already buffered, so coalescing adds
// no latency.
func (st *connState) peekSingle() bool {
	if st.br.Buffered() < wire.HeaderSize {
		return false
	}
	hdr, _ := st.br.Peek(wire.HeaderSize)
	switch hdr[4] {
	case wire.OpGet, wire.OpPut, wire.OpDel:
		return true
	}
	return false
}

// replStream hands a REPLSYNC connection over to the replication
// source. The caller (serveConn) returns right after: the connection is
// a record stream from here until it dies, and serveConn's defer closes
// it like any other connection.
func (st *connState) replStream(payload []byte) {
	s := st.srv
	s.ops.Add(1)
	from, err := wire.DecodeReplSync(payload)
	if err == nil && s.cfg.Repl == nil {
		err = errors.New("replication is not enabled on this server")
	}
	if err != nil {
		s.errors.Add(1)
		st.bw.Write(wire.AppendError(st.resp[:0], err.Error()))
		st.bw.Flush()
		return
	}
	s.logf("server: conn %s: replication stream from LSN %d", st.c.RemoteAddr(), from)
	if err := s.cfg.Repl.ServeConn(st.c, st.br, st.bw, from); err != nil && !isClosedErr(err) {
		s.logf("server: repl stream %s: %v", st.c.RemoteAddr(), err)
	}
}

// promoteReply answers OpPromote: the replica stops replicating and
// starts accepting writes. Idempotent — promoting a promoted replica
// acknowledges again; a server that was never a replica refuses.
func (st *connState) promoteReply() error {
	st.srv.ops.Add(1)
	rp := st.srv.cfg.Replica
	if rp == nil {
		st.srv.errors.Add(1)
		st.resp = wire.AppendError(st.resp, "this server is not a replica")
		return nil
	}
	lsn := rp.Promote()
	st.srv.logf("server: promoted to primary at LSN %d (requested by %s)", lsn, st.c.RemoteAddr())
	st.resp = wire.AppendEmpty(st.resp, wire.StatusOK)
	return nil
}

// StatsReply builds the full STATS sections: server counters, store
// stats, durability, replication roles, and — with metrics enabled —
// the observability section. The OpStats frame and the admin listener's
// /statsz both serve it.
func (s *Server) StatsReply() wire.StatsReply {
	storeStats := s.store.Stats()
	reply := wire.StatsReply{
		Server:     s.Counters(),
		Store:      storeStats,
		Durability: wire.DurabilityFrom(storeStats),
	}
	if rs, rp := s.cfg.Repl, s.cfg.Replica; rs != nil || rp != nil {
		repl := &wire.ReplicationStats{}
		reply.Role = "primary"
		if rs != nil {
			repl.Primary = rs.Counters()
		}
		if rp != nil {
			repl.Replica = rp.Counters()
			if !rp.WritesAllowed() {
				reply.Role = "replica"
			}
		}
		reply.Replication = repl
	}
	if s.metrics != nil {
		reply.Obs = s.metrics.obsStats()
	}
	return reply
}

// statsReply answers OpStats with the JSON StatsReply.
func (st *connState) statsReply() error {
	st.srv.ops.Add(1)
	body, err := json.Marshal(st.srv.StatsReply())
	if err != nil {
		return fmt.Errorf("marshaling stats: %w", err)
	}
	st.resp = wire.AppendFrame(st.resp, wire.StatusOK, body)
	return nil
}

func isClosedErr(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}
