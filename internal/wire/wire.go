// Package wire defines the compact length-prefixed binary protocol spoken
// between the network KV server (package server) and its Go client
// (package client). The format is built for pipelining: frames are fully
// self-delimiting and responses come back in request order, so a client
// can keep many single-op requests in flight on one connection and the
// server can gather what it has buffered into one ApplyBatch call.
//
// Frame layout (all integers little-endian):
//
//	u32 length   payload length including the tag byte (≤ MaxFrame)
//	u8  tag      request opcode or response status
//	...          payload, per tag
//
// Request payloads:
//
//	OpGet         u64 key
//	OpPut         u64 key, u64 value
//	OpDel         u64 key
//	OpStats       (empty)
//
// The internal/op batch codes (0x05–0x08, the same-kind and mixed batch
// layouts) name WAL records and replication stream records only; a
// request frame carrying one is refused as an unknown opcode. The
// replication frames are in repl.go.
//
// Response payloads:
//
//	StatusOK        op-specific: u64 value (GET); empty (PUT, DEL hit);
//	                JSON (STATS, below)
//	StatusNotFound  empty (GET, DEL miss)
//	StatusErr       UTF-8 error message
//
// The STATS response payload is JSON (StatsReply): it is off the hot path
// and keeps the reply extensible without protocol version bumps.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"vmshortcut"
	"vmshortcut/internal/op"
)

// HeaderSize is the fixed frame prefix: u32 length + u8 tag.
const HeaderSize = 5

// MaxFrame bounds a frame's length field. It admits a STATS reply of up
// to 1 MiB while keeping a malformed or hostile length prefix from
// ballooning a connection buffer.
const MaxFrame = 1 << 20

// Request opcodes. 0x05–0x08 are the internal/op batch codes and stay
// unassigned here.
const (
	OpGet byte = 0x01 + iota
	OpPut
	OpDel
	OpStats
)

// Response statuses. ReadOnly and Stale are the replica's refusals: a
// replica rejects mutations until promoted, and rejects reads while it
// has not heard from its primary within its staleness bound. Both carry
// an optional UTF-8 message like StatusErr.
const (
	StatusOK byte = 0x00 + iota
	StatusNotFound
	StatusErr
	StatusReadOnly
	StatusStale
)

// StatsReply is the JSON payload of a successful OpStats response: the
// server's own counters next to the backing store's uniform Stats, plus
// an explicit durability section so remote clients (and ehload's output)
// can read the WAL's state without knowing the Stats struct's field
// names.
// Forward compatibility is part of the contract: the payload is decoded
// with encoding/json defaults, which ignore unknown fields, so an old
// client reading a newer server's reply (extra sections, extra counters)
// sees everything it knows about and skips the rest — version skew
// between ehload and the server is expected during rollouts.
// Fields must therefore never be renamed or change meaning. An optional
// (omitempty) section may stop being sent; readers already treat an
// absent section as "not running here".
type StatsReply struct {
	Server ServerCounters   `json:"server"`
	Store  vmshortcut.Stats `json:"store"`
	// Durability mirrors the store's WAL counters (zero without WithWAL).
	Durability DurabilityCounters `json:"durability"`
	// Role is "primary" or "replica" ("" from servers predating
	// replication, which readers must treat as primary).
	Role string `json:"role,omitempty"`
	// Replication is present when the server replicates in either
	// direction (see repl.go).
	Replication *ReplicationStats `json:"replication,omitempty"`
	// Obs is the observability section: per-stage latency summaries and
	// per-opcode frame counts, present when the server runs with metrics
	// enabled. Like every other section it only ever gains fields;
	// readers must ignore stages they do not know.
	Obs *ObsStats `json:"obs,omitempty"`
}

// ObsStats is the observability section of StatsReply: summarized
// per-stage latency histograms keyed by stage name (frame_decode,
// coalesce_wait, shard_apply, wal_append, wal_fsync, repl_sync_ack,
// reply_write, batch_total — the set may grow), request frame counts by
// opcode name, and the slow-op count. Defined here rather than in
// internal/obs so the wire package stays dependency-free; the server
// fills it from its live histograms.
type ObsStats struct {
	Stages  map[string]HistSummary `json:"stages,omitempty"`
	Frames  map[string]uint64      `json:"frames_by_op,omitempty"`
	SlowOps uint64                 `json:"slow_ops"`
}

// HistSummary is one latency histogram summarized for JSON transport.
// All durations are nanoseconds; percentiles carry the source
// histogram's ~3% bucket resolution.
type HistSummary struct {
	Count  uint64  `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  uint64  `json:"p50_ns"`
	P95NS  uint64  `json:"p95_ns"`
	P99NS  uint64  `json:"p99_ns"`
	MaxNS  uint64  `json:"max_ns"`
}

// DurabilityCounters is the durability state of the backing store: how
// many WAL records and fsyncs it has issued, the highest log position
// known to be on stable storage, and the newest snapshot's coverage.
type DurabilityCounters struct {
	WALRecords  uint64 `json:"wal_records"`
	WALSyncs    uint64 `json:"wal_syncs"`
	DurableLSN  uint64 `json:"durable_lsn"`
	SnapshotLSN uint64 `json:"snapshot_lsn"`
}

// DurabilityFrom extracts the durability section from a store Stats
// snapshot.
func DurabilityFrom(st vmshortcut.Stats) DurabilityCounters {
	return DurabilityCounters{
		WALRecords:  st.WALRecords,
		WALSyncs:    st.WALSyncs,
		DurableLSN:  st.DurableLSN,
		SnapshotLSN: st.SnapshotLSN,
	}
}

// ServerCounters are the serving-layer counters of one server.
type ServerCounters struct {
	// ActiveConns and TotalConns count currently open and lifetime
	// accepted connections.
	ActiveConns uint64 `json:"active_conns"`
	TotalConns  uint64 `json:"total_conns"`
	// Ops counts operations served.
	Ops uint64 `json:"ops"`
	// Frames counts request frames decoded.
	Frames uint64 `json:"frames"`
	// CoalescedBatches counts store batch calls produced by gathering
	// pipelined single-op frames; CoalescedOps counts the ops they carried.
	CoalescedBatches uint64 `json:"coalesced_batches"`
	CoalescedOps     uint64 `json:"coalesced_ops"`
	// Errors counts StatusErr responses sent.
	Errors uint64 `json:"errors"`
	// ReadOnlyRejects and StaleRejects count replica refusals: mutations
	// rejected pending promotion, and reads rejected past the staleness
	// bound.
	ReadOnlyRejects uint64 `json:"read_only_rejects,omitempty"`
	StaleRejects    uint64 `json:"stale_rejects,omitempty"`
}

// appendHeader appends a frame header for a payload of n bytes (tag
// included in the length, as on the wire).
func appendHeader(dst []byte, tag byte, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n+1))
	return append(dst, tag)
}

// AppendFrame appends a complete frame with an opaque payload.
func AppendFrame(dst []byte, tag byte, payload []byte) []byte {
	dst = appendHeader(dst, tag, len(payload))
	return append(dst, payload...)
}

// AppendEmpty appends a frame with no payload (OpStats, StatusOK acks,
// StatusNotFound).
func AppendEmpty(dst []byte, tag byte) []byte { return appendHeader(dst, tag, 0) }

// AppendKey appends a one-key request frame (OpGet, OpDel).
func AppendKey(dst []byte, op byte, key uint64) []byte {
	dst = appendHeader(dst, op, 8)
	return binary.LittleEndian.AppendUint64(dst, key)
}

// AppendPut appends an OpPut frame.
func AppendPut(dst []byte, key, value uint64) []byte {
	dst = appendHeader(dst, OpPut, 16)
	dst = binary.LittleEndian.AppendUint64(dst, key)
	return binary.LittleEndian.AppendUint64(dst, value)
}

// DecodeBatch decodes a batch payload under its op batch code (a shipped
// WAL record's) into b. b retains payload (aliased) as its pre-encoded form, so the WAL
// can append it zero-copy; payload must stay untouched while b is in use.
func DecodeBatch(tag byte, payload []byte, b *op.Batch) error {
	return op.DecodePayload(tag, payload, b)
}

// AppendValue appends a StatusOK response carrying one value (GET hit).
func AppendValue(dst []byte, value uint64) []byte {
	dst = appendHeader(dst, StatusOK, 8)
	return binary.LittleEndian.AppendUint64(dst, value)
}

// AppendError appends a StatusErr response with a message.
func AppendError(dst []byte, msg string) []byte {
	dst = appendHeader(dst, StatusErr, len(msg))
	return append(dst, msg...)
}

// ReadFrame reads one request-path frame from r, reusing buf for the
// payload when it fits. It returns the tag, the payload (valid until the
// next call that reuses buf), the possibly grown buffer, and the first
// error. The header is read in place from r's buffer, so a caller that
// keeps its buf allocates nothing per frame; a body larger than r's
// buffer reads through it. A length below 1 or above MaxFrame fails with
// nothing consumed; a header cut short by the end of the stream is
// io.ErrUnexpectedEOF.
func ReadFrame(r *bufio.Reader, buf []byte) (tag byte, payload, newBuf []byte, err error) {
	return readFrame(r, buf, MaxFrame)
}

// readFrame is ReadFrame with the length bound as a parameter: MaxFrame
// on the request path, MaxReplFrame on a replication stream.
func readFrame(r *bufio.Reader, buf []byte, limit uint32) (tag byte, payload, newBuf []byte, err error) {
	hdr, err := r.Peek(HeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n < 1 || n > limit {
		return 0, nil, buf, fmt.Errorf("wire: frame length %d out of range [1, %d]", n, limit)
	}
	tag = hdr[4]
	r.Discard(HeaderSize)
	body := int(n) - 1
	if cap(buf) < body {
		buf = make([]byte, body)
	}
	payload = buf[:body]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, buf, fmt.Errorf("wire: short frame body: %w", err)
	}
	return tag, payload, buf, nil
}

// NextFrame parses the frame at the start of buf in place, returning its
// tag, its payload (aliasing buf) and the bytes it spans. size is 0 when
// buf does not start with a complete frame whose length is in [1,
// MaxFrame]; ReadFrame then waits for the rest, or reports the bad length.
// A reader that walks its buffered bytes with NextFrame consumes every
// frame already received with one Peek and one Discard.
func NextFrame(buf []byte) (tag byte, payload []byte, size int) {
	if len(buf) < HeaderSize {
		return 0, nil, 0
	}
	n := binary.LittleEndian.Uint32(buf)
	if n < 1 || n > MaxFrame || len(buf)-4 < int(n) {
		return 0, nil, 0
	}
	size = 4 + int(n)
	return buf[4], buf[HeaderSize:size], size
}

// Uint64 decodes the u64 at offset off of a payload.
func Uint64(p []byte, off int) uint64 { return binary.LittleEndian.Uint64(p[off:]) }
