package repl

import (
	"bufio"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vmshortcut"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/wire"
	"vmshortcut/wal"
)

// SourceConfig configures the primary side of replication.
type SourceConfig struct {
	// Sync makes replication synchronous: the server holds each mutation's
	// acknowledgement until a connected follower has acknowledged applying
	// it (see WaitShipped for the degrade semantics).
	Sync bool
	// SyncTimeout bounds how long a synchronous write waits for a follower
	// acknowledgement before degrading. Default 5s.
	SyncTimeout time.Duration
	// HeartbeatInterval paces the idle-stream keepalive frames that carry
	// the primary's position to followers. Default 500ms.
	HeartbeatInterval time.Duration
	// Traces is the primary's LSN→(trace ID, append time) ring, stamped by
	// the durable layer (vmshortcut.WithLSNTraces). When set, streams that
	// negotiated wire.ReplFlagTrace get a ReplTraceMeta frame ahead of each
	// record, and follower acknowledgements are turned into append-to-ack
	// time-lag measurements. Nil disables both.
	Traces *obs.LSNTraces
	// Recorder, when set, receives follower apply spans returning upstream
	// as ReplSpan frames: each is merged into the matching trace's flight-
	// recorder entry under obs.StageFollowerApply, joining the follower's
	// side of the pipeline to the primary's trace.
	Recorder *obs.Recorder
	// Logf receives replication events; nil discards them.
	Logf func(format string, args ...any)
}

// Source serves replication streams off a Replicable store. One Source
// is shared by every follower connection; the server hands connections
// over via ServeConn after decoding their REPLSYNC handshake.
type Source struct {
	rep vmshortcut.Replicable
	cfg SourceConfig

	mu        sync.Mutex
	followers map[*followerConn]struct{}
	ackC      chan struct{} // closed and replaced whenever acks/membership change
	closed    bool
	stopc     chan struct{}

	recordsShipped   atomic.Uint64
	bytesShipped     atomic.Uint64
	snapshotsShipped atomic.Uint64
	syncTimeouts     atomic.Uint64

	// ackLagMS is the append-to-ack time lag of the most recently
	// acknowledged record, milliseconds (-1 until measurable — requires
	// cfg.Traces and an ack whose LSN is still in the ring).
	ackLagMS atomic.Int64
}

// followerConn is one connected stream's shared state: the connection
// (for teardown) and the highest LSN the follower has acknowledged.
type followerConn struct {
	c     net.Conn
	acked atomic.Uint64
}

// NewSource returns a Source shipping rep's log. Close it before closing
// the store.
func NewSource(rep vmshortcut.Replicable, cfg SourceConfig) *Source {
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = 5 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 500 * time.Millisecond
	}
	s := &Source{
		rep:       rep,
		cfg:       cfg,
		followers: make(map[*followerConn]struct{}),
		ackC:      make(chan struct{}),
		stopc:     make(chan struct{}),
	}
	s.ackLagMS.Store(-1)
	return s
}

// SyncMode reports whether writes should wait for follower
// acknowledgement.
func (s *Source) SyncMode() bool { return s.cfg.Sync }

// LastLSN is the primary log's position (the target WaitShipped waits
// for after a mutation).
func (s *Source) LastLSN() uint64 { return s.rep.LastLSN() }

func (s *Source) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// bumpAcks wakes every WaitShipped waiter to re-evaluate; called when a
// follower acknowledges progress, connects, or disconnects.
func (s *Source) bumpAcks() {
	s.mu.Lock()
	close(s.ackC)
	s.ackC = make(chan struct{})
	s.mu.Unlock()
}

// WaitShipped blocks until some connected follower has acknowledged
// applying lsn, and reports whether one did. It degrades rather than
// stalling the write path: with no follower connected it returns true
// immediately (an unreplicated primary still serves), and after
// SyncTimeout it returns false and counts a sync timeout. "Some
// follower" — not all — is the useful guarantee: it means at least one
// promotable replica holds every acknowledged write.
//
// The sync-mode contract the server builds on it: a mutation is
// acknowledged only after WaitShipped returns, so an ack means some
// attached follower has the record. Any other ack is a degraded ack and
// carries no failover guarantee. There are two kinds. The wait can hit
// SyncTimeout: WaitShipped returns false and the ack is counted in
// SyncTimeouts (eh_repl_sync_timeouts_total). Or no follower is attached
// at all: WaitShipped returns true at once and nothing counts the ack.
// A primary that is killed sends no ack after the kill, so a follower
// stream torn down by the kill cannot turn a pending write into a
// degraded ack.
func (s *Source) WaitShipped(lsn uint64) bool {
	var timer *time.Timer
	for {
		s.mu.Lock()
		if s.closed || len(s.followers) == 0 {
			s.mu.Unlock()
			return true
		}
		shipped := false
		for fc := range s.followers {
			if fc.acked.Load() >= lsn {
				shipped = true
				break
			}
		}
		ch := s.ackC
		s.mu.Unlock()
		if shipped {
			return true
		}
		if timer == nil {
			timer = time.NewTimer(s.cfg.SyncTimeout)
			defer timer.Stop()
		}
		select {
		case <-ch:
		case <-timer.C:
			s.syncTimeouts.Add(1)
			return false
		}
	}
}

// Counters snapshots the primary-side replication stats.
func (s *Source) Counters() *wire.PrimaryReplCounters {
	pc := &wire.PrimaryReplCounters{
		SyncMode:         s.cfg.Sync,
		LastLSN:          s.rep.LastLSN(),
		RecordsShipped:   s.recordsShipped.Load(),
		BytesShipped:     s.bytesShipped.Load(),
		SnapshotsShipped: s.snapshotsShipped.Load(),
		SyncTimeouts:     s.syncTimeouts.Load(),
	}
	pc.LagMS = s.ackLagMS.Load()
	s.mu.Lock()
	pc.Followers = len(s.followers)
	for fc := range s.followers {
		if a := fc.acked.Load(); pc.MinAckedLSN == 0 || a < pc.MinAckedLSN {
			pc.MinAckedLSN = a
		}
	}
	s.mu.Unlock()
	if pc.Followers > 0 && pc.LastLSN > pc.MinAckedLSN {
		pc.LagRecords = pc.LastLSN - pc.MinAckedLSN
	}
	if _, _, head, ok := s.rep.ChainHead(); ok {
		pc.ChainHead = hex.EncodeToString(head[:])
	}
	return pc
}

// Close stops every follower stream and refuses new ones. Safe to call
// more than once.
func (s *Source) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.stopc)
	for fc := range s.followers {
		fc.c.Close()
	}
	s.mu.Unlock()
	s.bumpAcks()
}

// ServeConn runs one replication stream until the follower disconnects
// or the source closes: full sync if the follower's position has been
// compacted away, then the record tail, with heartbeats while idle and
// an ack reader upstream. It owns the connection from here on (the
// server's request loop has exited) but does not close it — the caller
// does, uniformly with regular connections. br carries any bytes the
// server over-read past the handshake; bw is the connection's writer.
func (s *Source) ServeConn(c net.Conn, br *bufio.Reader, bw *bufio.Writer, from uint64, flags byte) error {
	fc := &followerConn{c: c}
	fc.acked.Store(from)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("repl: source closed")
	}
	s.followers[fc] = struct{}{}
	s.mu.Unlock()
	s.bumpAcks()
	defer func() {
		s.mu.Lock()
		delete(s.followers, fc)
		s.mu.Unlock()
		s.bumpAcks() // sync writers must not wait on a vanished follower
	}()

	// stop fans every local goroutine's exit into the tail loop; any of
	// connection death, source close, or ack-reader error closes it.
	stop := make(chan struct{})
	var stopOnce sync.Once
	closeStop := func() { stopOnce.Do(func() { close(stop) }) }
	defer closeStop()
	go func() {
		select {
		case <-s.stopc:
			c.Close()
			closeStop()
		case <-stop:
		}
	}()

	// Ack reader: the only upstream traffic after the handshake. A read
	// error means the connection is gone; tearing down the stream side
	// via closeStop unblocks the tail loop's next write promptly.
	go func() {
		defer closeStop()
		defer c.Close()
		var buf []byte
		for {
			tag, payload, nbuf, err := wire.ReadReplFrame(br, buf)
			buf = nbuf
			if err != nil {
				return
			}
			switch tag {
			case wire.ReplAck:
			case wire.ReplSpan:
				// A follower's apply span returning for a sampled trace:
				// merge it into the flight recorder so /tracez shows the
				// follower's side of the pipeline on the primary.
				if id, _, spanNS, err := wire.DecodeReplSpan(payload); err == nil {
					s.cfg.Recorder.Merge(id, obs.StageFollowerApply, spanNS)
				}
				continue
			default:
				continue // tolerate future upstream frame kinds
			}
			lsn, err := wire.DecodeReplU64(payload)
			if err != nil {
				return
			}
			// Append-to-ack time lag: the acked record's append timestamp is
			// still in the LSN ring unless the follower is very far behind.
			if ent, ok := s.cfg.Traces.Get(lsn); ok {
				if lag := (time.Now().UnixNano() - ent.AppendNS) / int64(time.Millisecond); lag >= 0 {
					s.ackLagMS.Store(lag)
				}
			}
			if lsn > fc.acked.Load() {
				fc.acked.Store(lsn)
				s.bumpAcks()
			}
		}
	}()

	// wmu serializes the heartbeat goroutine and the shipping loop on bw.
	var wmu sync.Mutex

	start := from
	if oldest := s.rep.OldestLSN(); start+1 < oldest {
		// The follower's next record has been compacted away (or the
		// follower is brand new); ship a full snapshot and resume the
		// stream from its position.
		snapLSN, err := s.streamSnapshot(bw, &wmu)
		if err != nil {
			return fmt.Errorf("repl: streaming full sync: %w", err)
		}
		s.snapshotsShipped.Add(1)
		s.logf("repl: full sync through LSN %d served to %s", snapLSN, c.RemoteAddr())
		start = snapLSN
		fc.acked.Store(snapLSN)
	} else if last := s.rep.LastLSN(); start > last {
		// A follower ahead of the primary means it replicated from
		// someone else (or the primary lost its log): refusing loudly
		// beats silently diverging.
		wmu.Lock()
		bw.Write(wire.AppendError(nil, fmt.Sprintf("repl: follower at LSN %d is ahead of primary at %d", start, last)))
		bw.Flush()
		wmu.Unlock()
		return fmt.Errorf("repl: follower at LSN %d ahead of primary at %d", start, last)
	}

	// Per-stream chain, anchored at the stream's start position. Each
	// session re-anchors: the digest authenticates what THIS stream
	// shipped, and the follower verifies it against the same anchor.
	var chain *wal.Chain
	if flags&wire.ReplFlagChained != 0 {
		ch := wal.NewChain(start)
		chain = &ch
	}

	// Heartbeats carry the primary's position while the stream is idle,
	// feeding the follower's staleness clock and lag accounting.
	go func() {
		t := time.NewTicker(s.cfg.HeartbeatInterval)
		defer t.Stop()
		var hb []byte
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			hb = wire.AppendReplU64(hb[:0], wire.ReplHeartbeat, s.rep.LastLSN())
			wmu.Lock()
			_, err := bw.Write(hb)
			if err == nil {
				err = bw.Flush()
			}
			wmu.Unlock()
			if err != nil {
				c.Close()
				closeStop()
				return
			}
		}
	}()

	// Trace metadata ships only on streams that negotiated it: an old
	// primary rejects the flag outright, and an old follower would error
	// on the unknown downstream frame, so both sides must opt in.
	traced := flags&wire.ReplFlagTrace != 0 && s.cfg.Traces != nil

	var frame []byte
	err := s.rep.TailWAL(start, stop, func(r wal.TailRecord) error {
		var hp *[wire.ReplHashSize]byte
		if chain != nil {
			sum, err := chain.Extend(r.LSN, r.Code, r.Payload)
			if err != nil {
				return err
			}
			hp = &sum
		}
		frame = frame[:0]
		if traced {
			// One TRACEMETA frame ahead of the record it describes, in the
			// same write: the follower stashes it and matches it to the
			// next record by LSN. A ring miss (follower far behind) just
			// omits the frame — lag falls back to record counts.
			if ent, ok := s.cfg.Traces.Get(r.LSN); ok {
				frame = wire.AppendReplTraceMeta(frame, ent.LSN, ent.TraceID, ent.AppendNS)
			}
		}
		frame = wire.AppendReplRecord(frame, r.LSN, r.Code, hp, r.Payload)
		wmu.Lock()
		_, err := bw.Write(frame)
		if err == nil {
			err = bw.Flush()
		}
		wmu.Unlock()
		if err != nil {
			return err
		}
		s.recordsShipped.Add(1)
		s.bytesShipped.Add(uint64(len(frame)))
		return nil
	})
	if err == nil || errors.Is(err, wal.ErrClosed) {
		return nil
	}
	if errors.Is(err, wal.ErrCompacted) {
		// Compaction outran a slow follower mid-stream; dropping the
		// connection makes it reconnect and take the full-sync path.
		s.logf("repl: follower %s fell behind compaction; disconnecting for full sync", c.RemoteAddr())
	}
	return err
}

// streamSnapshot takes a snapshot via the store's regular snapshot path
// and streams the published file as SNAPBEGIN/CHUNK.../SNAPEND frames.
// It holds wmu across the whole snapshot so heartbeats cannot interleave
// with the chunk stream.
func (s *Source) streamSnapshot(bw *bufio.Writer, wmu *sync.Mutex) (uint64, error) {
	rc, lsn, size, err := s.rep.SnapshotReader()
	if err != nil {
		return 0, err
	}
	defer rc.Close()

	wmu.Lock()
	defer wmu.Unlock()
	var frame []byte
	if _, err := bw.Write(wire.AppendReplSnapBegin(frame, lsn, size)); err != nil {
		return 0, err
	}
	chunk := make([]byte, 256<<10)
	for {
		n, rerr := rc.Read(chunk)
		if n > 0 {
			frame = wire.AppendFrame(frame[:0], wire.ReplSnapChunk, chunk[:n])
			if _, err := bw.Write(frame); err != nil {
				return 0, err
			}
			s.bytesShipped.Add(uint64(n))
		}
		if rerr != nil {
			if rerr == io.EOF {
				break
			}
			return 0, rerr
		}
	}
	if _, err := bw.Write(wire.AppendEmpty(frame[:0], wire.ReplSnapEnd)); err != nil {
		return 0, err
	}
	return lsn, bw.Flush()
}
