package repl

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"vmshortcut"
	"vmshortcut/client"
	"vmshortcut/internal/obs"
	"vmshortcut/internal/op"
	"vmshortcut/internal/wire"
	"vmshortcut/persist"
)

// FollowerConfig configures a replica's connection to its primary.
type FollowerConfig struct {
	// Primary is the primary server's host:port. Required.
	Primary string
	// Store is the local store records are applied to. Required. A
	// durable store gives the replica its own WAL and snapshots, so a
	// restart resumes from its last applied position instead of taking a
	// full sync.
	Store vmshortcut.Store
	// BaseDir is where the replica keeps its position metadata (the
	// REPLBASE file). Required when Store is durable — pass the store's
	// WAL directory; ignored for in-memory stores.
	BaseDir string
	// Staleness bounds how long the replica keeps serving reads after
	// losing contact with the primary; past it, reads are refused with
	// StatusStale until contact resumes. 0 serves reads indefinitely.
	Staleness time.Duration
	// Pipeline, when set, records every record's apply span into the
	// follower_apply stage histogram.
	Pipeline *obs.Pipeline
	// DialTimeout bounds each connection attempt. Default 2s (the
	// reconnect loop retries indefinitely regardless).
	DialTimeout time.Duration
	// Logf receives replication events; nil discards them.
	Logf func(format string, args ...any)
}

// Follower replicates a primary into a local store and serves the
// replica side of the server's gating: WritesAllowed, Stale, Promote.
// Start it with StartFollower; it reconnects on its own until promoted
// or closed.
type Follower struct {
	cfg FollowerConfig
	rep vmshortcut.Replicable // nil for in-memory stores

	// now is the staleness clock; nil means time.Now. Tests inject a
	// fake so the READ→STALE transition is deterministic, without
	// sleeping out a real staleness bound.
	now func() time.Time

	// applied is the primary-log LSN the local store reflects; base maps
	// local WAL positions to primary positions (primary = base + local)
	// and is only touched by the session goroutine after startup.
	applied     atomic.Uint64
	base        uint64
	primaryLSN  atomic.Uint64
	lastContact atomic.Int64 // unix nanos of last primary frame; 0 = never
	connected   atomic.Bool
	promoted    atomic.Bool

	fullSyncs      atomic.Uint64
	reconnects     atomic.Uint64
	recordsApplied atomic.Uint64

	fatalMu  sync.Mutex
	fatalErr error

	stopOnce sync.Once
	stopc    chan struct{}
	done     chan struct{}
	connMu   sync.Mutex
	conn     net.Conn // live session's connection, for interrupt
}

// replBase is the REPLBASE file: how a durable replica's local WAL
// positions map back to the primary's log after a restart. Written once
// per full sync, read once at startup.
type replBase struct {
	// Base is the primary LSN the local log's position 0 corresponds to:
	// primaryLSN = Base + localLSN.
	Base uint64 `json:"base"`
	// Primary records which primary the state came from, for operator
	// sanity-checks in logs.
	Primary string `json:"primary"`
}

const replBaseName = "REPLBASE"

func readReplBase(dir string) (replBase, bool, error) {
	var rb replBase
	b, err := os.ReadFile(filepath.Join(dir, replBaseName))
	if os.IsNotExist(err) {
		return rb, false, nil
	}
	if err != nil {
		return rb, false, err
	}
	if err := json.Unmarshal(b, &rb); err != nil {
		return rb, false, fmt.Errorf("repl: corrupt %s: %w", replBaseName, err)
	}
	return rb, true, nil
}

func writeReplBase(dir string, rb replBase) error {
	b, err := json.Marshal(rb)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, replBaseName+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	f, err := os.Open(tmp)
	if err == nil {
		f.Sync()
		f.Close()
	}
	return os.Rename(tmp, filepath.Join(dir, replBaseName))
}

// StartFollower validates the replica's local state against its
// metadata, then starts the replication loop in the background. Local
// state without replication metadata is refused loudly — silently
// layering a primary's stream over unrelated data would corrupt both —
// the fix is wiping the replica's data directory.
func StartFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Primary == "" {
		return nil, errors.New("repl: follower needs a primary address")
	}
	if cfg.Store == nil {
		return nil, errors.New("repl: follower needs a store")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	f := &Follower{
		cfg:   cfg,
		stopc: make(chan struct{}),
		done:  make(chan struct{}),
	}
	if rep, ok := vmshortcut.AsReplicable(cfg.Store); ok {
		if cfg.BaseDir == "" {
			return nil, errors.New("repl: a durable replica needs BaseDir (its WAL directory) for position metadata")
		}
		f.rep = rep
		rb, found, err := readReplBase(cfg.BaseDir)
		if err != nil {
			return nil, err
		}
		local := rep.LastLSN()
		switch {
		case found:
			f.base = rb.Base
			f.applied.Store(rb.Base + local)
		case local > 0 || cfg.Store.Len() > 0:
			return nil, fmt.Errorf("repl: %s has local state but no %s; refusing to replicate over it (wipe the directory to make this a replica)",
				cfg.BaseDir, replBaseName)
		default:
			// A fresh replica tails from zero, so local LSNs equal primary
			// LSNs (base 0). Written now — before any record lands — so a
			// restart at any point resumes instead of being refused as
			// foreign state.
			if err := writeReplBase(cfg.BaseDir, replBase{Base: 0, Primary: cfg.Primary}); err != nil {
				return nil, fmt.Errorf("repl: writing %s: %w", replBaseName, err)
			}
		}
	} else if cfg.Store.Len() > 0 {
		return nil, errors.New("repl: refusing to replicate into a non-empty store")
	}
	go f.run()
	return f, nil
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stopc:
		return true
	default:
		return false
	}
}

// fatal records an unrecoverable divergence (unknown stream frame, apply
// failure, state mismatch) and returns it; run stops reconnecting once
// one is set. The replica keeps serving whatever it has — its staleness
// bound, if any, takes over the freshness story.
func (f *Follower) fatal(err error) error {
	f.fatalMu.Lock()
	if f.fatalErr == nil {
		f.fatalErr = err
	}
	f.fatalMu.Unlock()
	return err
}

// Err reports the fatal error that halted replication, if any.
func (f *Follower) Err() error {
	f.fatalMu.Lock()
	defer f.fatalMu.Unlock()
	return f.fatalErr
}

// clock returns the follower's time source (the real clock unless a
// test injected one).
func (f *Follower) clock() time.Time {
	if f.now != nil {
		return f.now()
	}
	return time.Now()
}

func (f *Follower) touch() { f.lastContact.Store(f.clock().UnixNano()) }

// WritesAllowed implements the server's Replica gate: false until
// promoted.
func (f *Follower) WritesAllowed() bool { return f.promoted.Load() }

// Stale reports whether reads should be refused: the primary has been
// silent past the configured staleness bound. A promoted replica is
// never stale; without a bound, reads are served indefinitely.
func (f *Follower) Stale() bool {
	bound := f.cfg.Staleness
	if bound <= 0 || f.promoted.Load() {
		return false
	}
	last := f.lastContact.Load()
	if last == 0 {
		return true // never heard from the primary yet
	}
	return f.clock().Sub(time.Unix(0, last)) > bound
}

// Promote makes the replica a primary: replication stops, the applied
// stream is drained, and writes are accepted from the return onward. It
// returns the last primary LSN applied — everything the old primary
// acknowledged (under synchronous replication) is in the store. Safe to
// call more than once.
func (f *Follower) Promote() uint64 {
	f.promoted.Store(true)
	f.shutdown()
	<-f.done
	applied := f.applied.Load()
	f.logf("repl: promoted at primary LSN %d; accepting writes", applied)
	return applied
}

// Close stops replication without promoting. Safe alongside Promote.
func (f *Follower) Close() {
	f.shutdown()
	<-f.done
}

func (f *Follower) shutdown() {
	f.stopOnce.Do(func() {
		close(f.stopc)
		f.connMu.Lock()
		if f.conn != nil {
			f.conn.Close()
		}
		f.connMu.Unlock()
	})
}

// Counters snapshots the replica-side replication stats.
func (f *Follower) Counters() *wire.ReplicaReplCounters {
	applied := f.applied.Load()
	primary := f.primaryLSN.Load()
	if primary < applied {
		primary = applied
	}
	lastMS := int64(-1)
	if lc := f.lastContact.Load(); lc > 0 {
		lastMS = f.clock().Sub(time.Unix(0, lc)).Milliseconds()
	}
	return &wire.ReplicaReplCounters{
		PrimaryAddr:      f.cfg.Primary,
		Connected:        f.connected.Load(),
		AppliedLSN:       applied,
		PrimaryLSN:       primary,
		LastContactMS:    lastMS,
		StalenessBoundMS: f.cfg.Staleness.Milliseconds(),
		Stale:            f.Stale(),
		Promoted:         f.promoted.Load(),
		FullSyncs:        f.fullSyncs.Load(),
		Reconnects:       f.reconnects.Load(),
		RecordsApplied:   f.recordsApplied.Load(),
		LagRecords:       primary - applied,
	}
}

// run is the replication loop: one session per connection, reconnecting
// with a short backoff until closed, promoted, or fatally diverged.
func (f *Follower) run() {
	defer close(f.done)
	defer f.connected.Store(false)
	for first := true; ; first = false {
		if f.stopped() {
			return
		}
		if !first {
			f.reconnects.Add(1)
		}
		err := f.session()
		if f.stopped() {
			return
		}
		if f.Err() != nil {
			f.logf("repl: replication halted: %v", f.Err())
			return
		}
		if err != nil {
			f.logf("repl: session with %s ended: %v; reconnecting", f.cfg.Primary, err)
		}
		select {
		case <-f.stopc:
			return
		case <-time.After(300 * time.Millisecond):
		}
	}
}

// session runs one connection's lifetime: dial, handshake, then apply
// stream frames until the connection dies or the follower stops.
func (f *Follower) session() error {
	cc, err := client.DialConnRetry(f.cfg.Primary, f.cfg.DialTimeout)
	if err != nil {
		return err
	}
	nc, br, bw := cc.Hijack()
	f.connMu.Lock()
	if f.stopped() {
		f.connMu.Unlock()
		nc.Close()
		return nil
	}
	f.conn = nc
	f.connMu.Unlock()
	defer func() {
		f.connMu.Lock()
		f.conn = nil
		f.connMu.Unlock()
		nc.Close()
		f.connected.Store(false)
	}()

	from := f.applied.Load()
	if _, err := bw.Write(wire.AppendReplSync(nil, from)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	f.connected.Store(true)
	f.logf("repl: streaming from %s after LSN %d", f.cfg.Primary, from)

	var (
		buf, ack []byte
		b        op.Batch
		res      op.Results
	)
	for {
		tag, payload, nbuf, err := wire.ReadReplFrame(br, buf)
		buf = nbuf
		if err != nil {
			if f.stopped() {
				return nil
			}
			return err
		}
		f.touch()
		switch tag {
		case wire.ReplSnapBegin:
			snapLSN, err := f.restoreSnapshot(payload, br, &buf)
			if err != nil {
				return err
			}
			f.fullSyncs.Add(1)
			f.logf("repl: full sync restored through LSN %d", snapLSN)

		case wire.ReplRecord:
			lsn, code, rp, err := wire.DecodeReplRecord(payload)
			if err != nil {
				return err
			}
			want := f.applied.Load() + 1
			if lsn != want {
				return fmt.Errorf("repl: stream gap: got record %d, want %d", lsn, want)
			}
			if err := wire.DecodeBatch(code, rp, &b); err != nil {
				return f.fatal(fmt.Errorf("repl: record %d: %w", lsn, err))
			}
			// The same apply path crash recovery uses; on a durable
			// replica this also appends the record to the local WAL —
			// byte-identical to the primary's, zero re-encode.
			applyStart := time.Now()
			if err := f.cfg.Store.ApplyBatch(&b, &res); err != nil {
				return f.fatal(fmt.Errorf("repl: applying record %d: %w", lsn, err))
			}
			f.cfg.Pipeline.Record(obs.StageFollowerApply, uint64(time.Since(applyStart)))
			f.applied.Store(lsn)
			f.recordsApplied.Add(1)
			if lsn > f.primaryLSN.Load() {
				f.primaryLSN.Store(lsn)
			}
			ack = wire.AppendReplU64(ack[:0], wire.ReplAck, lsn)
			if _, err := bw.Write(ack); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}

		case wire.ReplHeartbeat:
			lsn, err := wire.DecodeReplU64(payload)
			if err != nil {
				return err
			}
			if lsn > f.primaryLSN.Load() {
				f.primaryLSN.Store(lsn)
			}

		case wire.StatusErr:
			return f.fatal(fmt.Errorf("repl: primary refused the stream: %s", payload))

		default:
			// A frame kind this revision does not know (0x24 included)
			// means the primary speaks another protocol: reconnecting
			// would get the same stream again.
			return f.fatal(fmt.Errorf("repl: unexpected stream frame 0x%02x", tag))
		}
	}
}

// restoreSnapshot consumes a full-sync stream (SNAPBEGIN already read;
// its payload is hdr) into the local store and records the position
// mapping. A full sync is only legal into an empty replica — the
// primary only sends one when the follower asked to start below its
// oldest retained record, which an empty replica does and a caught-up
// one does not; anything else means operator error, refused fatally.
func (f *Follower) restoreSnapshot(hdr []byte, br *bufio.Reader, buf *[]byte) (uint64, error) {
	snapLSN, size, err := wire.DecodeReplSnapBegin(hdr)
	if err != nil {
		return 0, err
	}
	if f.applied.Load() != 0 || f.cfg.Store.Len() != 0 {
		return 0, f.fatal(errors.New("repl: primary requires a full sync but the replica has local state " +
			"(the primary's compaction outpaced this replica, or the state is foreign); " +
			"wipe the replica's data directory and restart to take the full sync"))
	}
	f.logf("repl: full sync: restoring %d-byte snapshot through LSN %d", size, snapLSN)
	fr := &snapFrameReader{br: br, buf: buf, touch: f.touch}
	if _, err := persist.RestoreInto(fr, f.cfg.Store); err != nil {
		return 0, f.fatal(fmt.Errorf("repl: restoring snapshot: %w", err))
	}
	if err := fr.drain(); err != nil {
		return 0, err
	}
	if f.rep != nil {
		// The snapshot's pairs entered through ApplyBatch, which on a
		// durable store logs one record per chunk locally; the local log
		// position now corresponds to the primary's snapLSN.
		f.base = snapLSN - f.rep.LastLSN()
		if err := writeReplBase(f.cfg.BaseDir, replBase{Base: f.base, Primary: f.cfg.Primary}); err != nil {
			return 0, f.fatal(fmt.Errorf("repl: writing %s: %w", replBaseName, err))
		}
	}
	f.applied.Store(snapLSN)
	if snapLSN > f.primaryLSN.Load() {
		f.primaryLSN.Store(snapLSN)
	}
	return snapLSN, nil
}

// snapFrameReader adapts the chunked snapshot frames into the io.Reader
// persist.Restore expects. It returns io.EOF at the SNAPEND frame, so a
// buffered reader inside Restore can over-read harmlessly.
type snapFrameReader struct {
	br    *bufio.Reader
	buf   *[]byte
	cur   []byte
	done  bool
	touch func()
}

func (fr *snapFrameReader) Read(p []byte) (int, error) {
	for len(fr.cur) == 0 {
		if fr.done {
			return 0, io.EOF
		}
		tag, payload, nbuf, err := wire.ReadReplFrame(fr.br, *fr.buf)
		*fr.buf = nbuf
		if err != nil {
			return 0, err
		}
		fr.touch()
		switch tag {
		case wire.ReplSnapChunk:
			fr.cur = payload
		case wire.ReplSnapEnd:
			fr.done = true
			return 0, io.EOF
		default:
			return 0, fmt.Errorf("repl: unexpected frame 0x%02x inside a snapshot stream", tag)
		}
	}
	n := copy(p, fr.cur)
	fr.cur = fr.cur[n:]
	return n, nil
}

// drain consumes through the SNAPEND frame if Restore's own buffering
// stopped short of it, so the record stream resumes frame-aligned.
func (fr *snapFrameReader) drain() error {
	var p [4096]byte
	for !fr.done {
		if _, err := fr.Read(p[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}
