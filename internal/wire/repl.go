// Replication protocol frames. A follower opens an ordinary client
// connection and sends one REPLSYNC request; from then on the connection
// leaves the request/response regime and becomes a replication stream:
// the primary pushes snapshot and record frames downstream while the
// follower sends REPLACK frames upstream, both directions flowing
// independently.
//
//	OpReplSync       u64 fromLSN, u8 flags    follower → primary handshake:
//	                 stream every record after fromLSN (0 = everything);
//	                 ReplFlagChained requests per-record chain digests
//	OpPromote        (empty)                  admin: replica becomes primary
//	                 (StatusOK ack; StatusErr when the server is not a
//	                 replica)
//
// Stream frames (primary → follower after a REPLSYNC):
//
//	ReplSnapBegin    u64 snapLSN, u64 size    a full sync is coming: a
//	                 persist-format snapshot covering the log through
//	                 snapLSN, size bytes in total
//	ReplSnapChunk    raw snapshot bytes
//	ReplSnapEnd      (empty)                  snapshot complete (persist's
//	                 own CRC trailer authenticates the content)
//	ReplRecord       u64 lsn, u8 code, batch payload — one WAL record,
//	                 payload byte-identical to the primary's log (and to
//	                 the frame the write arrived in: zero re-encode)
//	ReplRecordHashed u64 lsn, u8 code, 32-byte chain digest, batch payload
//	ReplHeartbeat    u64 lastLSN              keepalive + lag beacon while idle
//
// Upstream (follower → primary):
//
//	ReplAck          u64 appliedLSN           everything ≤ appliedLSN is
//	                 applied on the follower (basis for synchronous
//	                 replication and the primary's lag accounting)
//
// A record frame carrying a maximum batch plus the stream prefix can
// exceed MaxFrame by a few dozen bytes, so stream readers admit
// MaxReplFrame via ReadReplFrame; request-path readers keep the tighter
// bound.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"vmshortcut/internal/op"
)

// Admin / handshake opcodes (request path).
const (
	OpReplSync byte = 0x10
	OpPromote  byte = 0x11
)

// Stream frame tags (replication stream only, never on the request path).
const (
	ReplSnapBegin byte = 0x20 + iota
	ReplSnapChunk
	ReplSnapEnd
	ReplRecord
	ReplRecordHashed
	ReplHeartbeat
	ReplAck
	// ReplTraceMeta (downstream) announces the trace identity of the next
	// record frame: u64 lsn, u64 traceID, i64 appendNS (the primary's wall
	// clock at WAL append, unix nanoseconds). Shipped only when the
	// follower negotiated ReplFlagTrace, so old followers never see it.
	ReplTraceMeta
	// ReplSpan (upstream) returns a follower's apply span to the primary:
	// u64 traceID, u64 lsn, u64 spanNS. The primary's ack reader skips
	// unknown upstream tags by design, so an old primary tolerates it.
	ReplSpan
)

// ReplFlagChained asks the primary to ship each record as
// ReplRecordHashed, carrying the stream chain's digest through that
// record. The chain is anchored at the handshake's effective start
// position (fromLSN, or the snapshot LSN after a full sync).
const ReplFlagChained byte = 1 << 0

// ReplFlagTrace asks the primary to interleave ReplTraceMeta frames into
// the stream (trace ID and append timestamp per shipped record) and to
// accept ReplSpan frames upstream. Followers must only set it against
// primaries known to understand it: like every REPLSYNC capability bit,
// an old primary rejects the handshake rather than shipping a stream
// with silently missing semantics.
const ReplFlagTrace byte = 1 << 1

// replFlagsKnown is the set of REPLSYNC capability bits this revision
// understands; DecodeReplSync rejects anything outside it.
const replFlagsKnown = ReplFlagChained | ReplFlagTrace

// ReplHashSize is the chain digest width in ReplRecordHashed frames
// (SHA-256; wal.ChainHashSize, restated here so wire stays free of the
// wal dependency).
const ReplHashSize = 32

// MaxReplFrame bounds stream frame lengths: MaxFrame plus the worst-case
// stream prefix (lsn + code + digest).
const MaxReplFrame = MaxFrame + 64

// replSyncSize is the OpReplSync payload: u64 fromLSN + u8 flags.
const replSyncSize = 9

// AppendReplSync appends the follower's handshake frame.
func AppendReplSync(dst []byte, fromLSN uint64, flags byte) []byte {
	dst = appendHeader(dst, OpReplSync, replSyncSize)
	dst = binary.LittleEndian.AppendUint64(dst, fromLSN)
	return append(dst, flags)
}

// DecodeReplSync decodes an OpReplSync payload. Unknown flag bits are
// rejected: a primary that silently ignored a capability bit would ship a
// stream the follower cannot verify.
func DecodeReplSync(p []byte) (fromLSN uint64, flags byte, err error) {
	if len(p) != replSyncSize {
		return 0, 0, fmt.Errorf("wire: REPLSYNC payload %d bytes, want %d", len(p), replSyncSize)
	}
	flags = p[8]
	if flags&^replFlagsKnown != 0 {
		return 0, 0, fmt.Errorf("wire: REPLSYNC unknown flags 0x%02x", flags&^replFlagsKnown)
	}
	return binary.LittleEndian.Uint64(p), flags, nil
}

// AppendReplSnapBegin appends the full-sync announcement: a snapshot
// covering the log through snapLSN, size bytes of persist stream to
// follow in ReplSnapChunk frames.
func AppendReplSnapBegin(dst []byte, snapLSN uint64, size int64) []byte {
	dst = appendHeader(dst, ReplSnapBegin, 16)
	dst = binary.LittleEndian.AppendUint64(dst, snapLSN)
	return binary.LittleEndian.AppendUint64(dst, uint64(size))
}

// DecodeReplSnapBegin decodes a ReplSnapBegin payload.
func DecodeReplSnapBegin(p []byte) (snapLSN uint64, size int64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("wire: SNAPBEGIN payload %d bytes, want 16", len(p))
	}
	snapLSN = binary.LittleEndian.Uint64(p)
	usize := binary.LittleEndian.Uint64(p[8:])
	if usize > 1<<62 {
		return 0, 0, fmt.Errorf("wire: SNAPBEGIN size %d out of range", usize)
	}
	return snapLSN, int64(usize), nil
}

// AppendReplRecord appends one shipped WAL record. With hash non-nil the
// frame is ReplRecordHashed and carries the chain digest through this
// record; the payload bytes are appended as given — the zero-re-encode
// path from the primary's log to the follower's socket.
func AppendReplRecord(dst []byte, lsn uint64, code byte, hash *[ReplHashSize]byte, payload []byte) []byte {
	if hash == nil {
		dst = appendHeader(dst, ReplRecord, 9+len(payload))
	} else {
		dst = appendHeader(dst, ReplRecordHashed, 9+ReplHashSize+len(payload))
	}
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, code)
	if hash != nil {
		dst = append(dst, hash[:]...)
	}
	return append(dst, payload...)
}

// DecodeReplRecord decodes a ReplRecord or ReplRecordHashed payload. The
// returned hash is nil for ReplRecord and aliases p for ReplRecordHashed,
// as does the batch payload; the batch payload's structure is the op
// codec's concern (the follower's DecodeBatch validates it before apply).
func DecodeReplRecord(tag byte, p []byte) (lsn uint64, code byte, hash, payload []byte, err error) {
	prefix := 9
	if tag == ReplRecordHashed {
		prefix += ReplHashSize
	} else if tag != ReplRecord {
		return 0, 0, nil, nil, fmt.Errorf("wire: tag 0x%02x is not a record frame", tag)
	}
	// The smallest batch payload is its u32 count.
	if len(p) < prefix+4 {
		return 0, 0, nil, nil, fmt.Errorf("wire: record frame payload %d bytes, need at least %d", len(p), prefix+4)
	}
	lsn = binary.LittleEndian.Uint64(p)
	code = p[8]
	switch code {
	case op.CodePutBatch, op.CodeDelBatch, op.CodeMixedBatch:
	default:
		return 0, 0, nil, nil, fmt.Errorf("wire: record frame carries non-batch code 0x%02x", code)
	}
	if tag == ReplRecordHashed {
		hash = p[9:prefix]
	}
	return lsn, code, hash, p[prefix:], nil
}

// AppendReplU64 appends a ReplHeartbeat or ReplAck frame (both carry one
// u64: the sender's position).
func AppendReplU64(dst []byte, tag byte, lsn uint64) []byte {
	dst = appendHeader(dst, tag, 8)
	return binary.LittleEndian.AppendUint64(dst, lsn)
}

// DecodeReplU64 decodes a ReplHeartbeat or ReplAck payload.
func DecodeReplU64(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("wire: position frame payload %d bytes, want 8", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// replTraceSize is the ReplTraceMeta / ReplSpan payload: three u64s.
const replTraceSize = 24

// AppendReplTraceMeta appends the downstream trace announcement for the
// record at lsn: its trace ID (0 = unsampled, timestamp only) and the
// primary's append wall clock.
func AppendReplTraceMeta(dst []byte, lsn, traceID uint64, appendNS int64) []byte {
	dst = appendHeader(dst, ReplTraceMeta, replTraceSize)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = binary.LittleEndian.AppendUint64(dst, traceID)
	return binary.LittleEndian.AppendUint64(dst, uint64(appendNS))
}

// DecodeReplTraceMeta decodes a ReplTraceMeta payload.
func DecodeReplTraceMeta(p []byte) (lsn, traceID uint64, appendNS int64, err error) {
	if len(p) != replTraceSize {
		return 0, 0, 0, fmt.Errorf("wire: TRACEMETA payload %d bytes, want %d", len(p), replTraceSize)
	}
	return binary.LittleEndian.Uint64(p),
		binary.LittleEndian.Uint64(p[8:]),
		int64(binary.LittleEndian.Uint64(p[16:])), nil
}

// AppendReplSpan appends the upstream follower-apply span for the record
// at lsn under the given trace ID.
func AppendReplSpan(dst []byte, traceID, lsn, spanNS uint64) []byte {
	dst = appendHeader(dst, ReplSpan, replTraceSize)
	dst = binary.LittleEndian.AppendUint64(dst, traceID)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	return binary.LittleEndian.AppendUint64(dst, spanNS)
}

// DecodeReplSpan decodes a ReplSpan payload.
func DecodeReplSpan(p []byte) (traceID, lsn, spanNS uint64, err error) {
	if len(p) != replTraceSize {
		return 0, 0, 0, fmt.Errorf("wire: REPLSPAN payload %d bytes, want %d", len(p), replTraceSize)
	}
	return binary.LittleEndian.Uint64(p),
		binary.LittleEndian.Uint64(p[8:]),
		binary.LittleEndian.Uint64(p[16:]), nil
}

// ReadReplFrame reads one frame with the stream bound (MaxReplFrame)
// instead of the request bound. Same contract as ReadFrame otherwise.
func ReadReplFrame(r io.Reader, buf []byte) (tag byte, payload, newBuf []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxReplFrame {
		return 0, nil, buf, fmt.Errorf("wire: stream frame length %d out of range [1, %d]", n, MaxReplFrame)
	}
	tag = hdr[4]
	body := int(n) - 1
	if cap(buf) < body {
		buf = make([]byte, body)
	}
	payload = buf[:body]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, fmt.Errorf("wire: short stream frame body: %w", err)
	}
	return tag, payload, buf, nil
}

// PrimaryReplCounters is the primary-side replication section of a STATS
// reply: the fan-out state of its replication source.
type PrimaryReplCounters struct {
	// Followers is the number of connected replication streams.
	Followers int `json:"followers"`
	// SyncMode reports synchronous replication: writes are acknowledged
	// only after a connected follower acknowledged them.
	SyncMode bool `json:"sync_mode"`
	// LastLSN is the log position; MinAckedLSN is the lowest position all
	// connected followers have acknowledged (0 without followers).
	LastLSN     uint64 `json:"last_lsn"`
	MinAckedLSN uint64 `json:"min_acked_lsn"`
	// RecordsShipped and BytesShipped count stream traffic; SnapshotsShipped
	// counts full syncs served.
	RecordsShipped   uint64 `json:"records_shipped"`
	BytesShipped     uint64 `json:"bytes_shipped"`
	SnapshotsShipped uint64 `json:"snapshots_shipped"`
	// SyncTimeouts counts writes acknowledged after the synchronous-
	// replication wait degraded (follower too slow or disconnected).
	SyncTimeouts uint64 `json:"sync_timeouts"`
	// ChainHead is the primary's live chain digest (hex), present only
	// with a chained WAL.
	ChainHead string `json:"chain_head,omitempty"`
	// LagRecords is LastLSN − MinAckedLSN while followers are connected
	// (how many records the slowest follower still owes an ack for);
	// LagMS is the append-to-ack time lag of the most recently
	// acknowledged record, milliseconds (-1: not yet measurable). Both
	// were added after the first replication release; old servers simply
	// omit them, so readers must treat absence as unknown, not zero lag.
	LagRecords uint64 `json:"lag_records"`
	LagMS      int64  `json:"lag_ms"`
}

// ReplicaReplCounters is the replica-side replication section of a STATS
// reply: the follower's view of its primary.
type ReplicaReplCounters struct {
	PrimaryAddr string `json:"primary_addr"`
	Connected   bool   `json:"connected"`
	// AppliedLSN is the primary log position the replica has applied;
	// PrimaryLSN is the primary's position as of the last heartbeat.
	AppliedLSN uint64 `json:"applied_lsn"`
	PrimaryLSN uint64 `json:"primary_lsn"`
	// LastContactMS is how long ago the primary was last heard from (-1:
	// never); StalenessBoundMS is the configured read bound (0: none);
	// Stale reports reads currently being rejected.
	LastContactMS    int64 `json:"last_contact_ms"`
	StalenessBoundMS int64 `json:"staleness_bound_ms"`
	Stale            bool  `json:"stale"`
	// Promoted reports a replica that has been promoted to primary.
	Promoted       bool   `json:"promoted"`
	FullSyncs      uint64 `json:"full_syncs"`
	Reconnects     uint64 `json:"reconnects"`
	RecordsApplied uint64 `json:"records_applied"`
	// LagRecords is PrimaryLSN − AppliedLSN (records known shipped but not
	// yet applied here); LagMS is the append-to-apply time lag of the most
	// recently applied record, milliseconds (-1: not yet measurable —
	// requires a trace-enabled stream for the primary's append timestamp).
	// Added after the first replication release: absent in old servers'
	// replies, so readers must treat absence as unknown, not zero lag.
	LagRecords uint64 `json:"lag_records"`
	LagMS      int64  `json:"lag_ms"`
}

// ReplicationStats is the STATS reply's replication section: either side
// may be present (a promoted replica that now serves followers has both).
type ReplicationStats struct {
	Primary *PrimaryReplCounters `json:"primary,omitempty"`
	Replica *ReplicaReplCounters `json:"replica,omitempty"`
}
