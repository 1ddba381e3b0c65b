// Replication protocol frames. A follower opens an ordinary client
// connection and sends one REPLSYNC request; from then on the connection
// leaves the request/response regime and becomes a replication stream:
// the primary pushes snapshot and record frames downstream while the
// follower sends REPLACK frames upstream, both directions flowing
// independently.
//
//	OpReplSync       u64 fromLSN, u8 flags    follower → primary handshake:
//	                 stream every record after fromLSN (0 = everything);
//	                 flags must be 0
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
//	ReplHeartbeat    u64 lastLSN              keepalive + lag beacon while idle
//
// Tag 0x24 is retired and must stay unassigned, so that an older peer's
// frame under it is never read as something else; a follower halts on
// it as on any unknown frame.
//
// Upstream (follower → primary):
//
//	ReplAck          u64 appliedLSN           everything ≤ appliedLSN is
//	                 applied on the follower (basis for synchronous
//	                 replication and the primary's lag accounting)
//
// A record frame carrying a maximum batch plus the stream prefix can
// exceed MaxFrame by a few bytes, so stream readers admit
// MaxReplFrame via ReadReplFrame; request-path readers keep the tighter
// bound.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"

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
	_ // 0x24: retired, never sent
	ReplHeartbeat
	ReplAck
)

// MaxReplFrame bounds stream frame lengths: MaxFrame plus room for the
// record frame's lsn + code prefix.
const MaxReplFrame = MaxFrame + 64

// replSyncSize is the OpReplSync payload: u64 fromLSN + u8 flags.
const replSyncSize = 9

// AppendReplSync appends the follower's handshake frame. Its flags byte
// is always 0.
func AppendReplSync(dst []byte, fromLSN uint64) []byte {
	dst = appendHeader(dst, OpReplSync, replSyncSize)
	dst = binary.LittleEndian.AppendUint64(dst, fromLSN)
	return append(dst, 0)
}

// DecodeReplSync decodes an OpReplSync payload. A non-zero flags byte is
// refused: it asks for a capability this revision does not have, and a
// primary that ignored it would ship a stream the follower did not ask
// for.
func DecodeReplSync(p []byte) (fromLSN uint64, err error) {
	if len(p) != replSyncSize {
		return 0, fmt.Errorf("wire: REPLSYNC payload %d bytes, want %d", len(p), replSyncSize)
	}
	if p[8] != 0 {
		return 0, fmt.Errorf("wire: REPLSYNC unknown flags 0x%02x", p[8])
	}
	return binary.LittleEndian.Uint64(p), nil
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

// AppendReplRecord appends one shipped WAL record. The payload bytes are
// appended as given — the zero-re-encode path from the primary's log to
// the follower's socket.
func AppendReplRecord(dst []byte, lsn uint64, code byte, payload []byte) []byte {
	dst = appendHeader(dst, ReplRecord, 9+len(payload))
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, code)
	return append(dst, payload...)
}

// DecodeReplRecord decodes a ReplRecord payload. The returned batch
// payload aliases p; its structure is the op codec's concern (the
// follower's DecodeBatch validates it before apply).
func DecodeReplRecord(p []byte) (lsn uint64, code byte, payload []byte, err error) {
	// The smallest batch payload is its u32 count.
	if len(p) < 9+4 {
		return 0, 0, nil, fmt.Errorf("wire: record frame payload %d bytes, need at least %d", len(p), 9+4)
	}
	lsn = binary.LittleEndian.Uint64(p)
	code = p[8]
	switch code {
	case op.CodePutBatch, op.CodeDelBatch, op.CodeMixedBatch:
	default:
		return 0, 0, nil, fmt.Errorf("wire: record frame carries non-batch code 0x%02x", code)
	}
	return lsn, code, p[9:], nil
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

// ReadReplFrame is ReadFrame on a replication stream: the length bound
// is MaxReplFrame instead of MaxFrame, and nothing else differs.
func ReadReplFrame(r *bufio.Reader, buf []byte) (tag byte, payload, newBuf []byte, err error) {
	return readFrame(r, buf, MaxReplFrame)
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
	// UnattachedAcks counts writes acknowledged under synchronous
	// replication while no follower was attached: degraded acks that
	// carry no failover guarantee.
	UnattachedAcks uint64 `json:"unattached_acks"`
	// LagRecords is LastLSN − MinAckedLSN while followers are connected
	// (how many records the slowest follower still owes an ack for). It
	// was added after the first replication release; old servers simply
	// omit it, so readers must treat absence as unknown, not zero lag.
	LagRecords uint64 `json:"lag_records"`
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
	// yet applied here). Added after the first replication release: absent
	// in old servers' replies, so readers must treat absence as unknown,
	// not zero lag.
	LagRecords uint64 `json:"lag_records"`
}

// ReplicationStats is the STATS reply's replication section: either side
// may be present (a promoted replica that now serves followers has both).
type ReplicationStats struct {
	Primary *PrimaryReplCounters `json:"primary,omitempty"`
	Replica *ReplicaReplCounters `json:"replica,omitempty"`
}
