// Package wire defines the compact length-prefixed binary protocol spoken
// between the network KV server (package server) and its Go client
// (package client). The format is built for pipelining: frames are fully
// self-delimiting, responses come back in request order, and one
// MIXEDBATCH frame carries a whole ordered mix of operations so one round
// trip can become one ApplyBatch call against the store.
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
//	OpMixedBatch  u32 n, n × u8 kind, n × u64 key, puts × u64 value
//
// The batch payload is not defined here: it is the internal/op package's
// mixed batch layout, and OpMixedBatch is its batch code — the same bytes
// name a batch in a request frame and in a WAL record, so the wire→log
// path appends payloads without re-encoding. MIXEDBATCH carries an
// ordered mix of GET/PUT/DEL entries (columnar: kinds, keys, then one
// value per PUT entry in entry order), so one frame — and one store call,
// and one WAL record — can carry whatever a pipelined client had in
// flight. The op package's other batch codes (0x05–0x07, the same-kind
// layouts) name WAL records and replication stream records only; a
// request frame carrying one is refused as an unknown opcode.
//
// Response payloads:
//
//	StatusOK        op-specific: u64 value (GET); empty (PUT, STATS via
//	                JSON below); u32 n, n × u8 flag, gets × u64 value
//	                (MIXEDBATCH — flag is presence for GET/DEL entries and
//	                acceptance for PUT entries; one value per GET entry in
//	                entry order, zero when absent)
//	StatusNotFound  empty (GET, DEL miss)
//	StatusErr       UTF-8 error message
//
// The STATS response payload is JSON (StatsReply): it is off the hot path
// and keeps the reply extensible without protocol version bumps.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"vmshortcut"
	"vmshortcut/internal/op"
)

// HeaderSize is the fixed frame prefix: u32 length + u8 tag.
const HeaderSize = 5

// MaxFrame bounds a frame's length field. It admits MIXEDBATCH frames of
// ~60k entries while keeping a malformed or hostile length prefix from ballooning a
// connection buffer.
const MaxFrame = 1 << 20

// Request opcodes. OpMixedBatch is the internal/op mixed batch code —
// not merely equal by convention but the same constant — so the frame
// tag, the store-facing batch representation, and the WAL record opcode
// agree by construction.
const (
	OpGet byte = 0x01 + iota
	OpPut
	OpDel
	OpStats
)

const OpMixedBatch = op.CodeMixedBatch

// OpTraceCtx is the trace-context envelope: a request-path frame carrying
// u64 traceID, u8 flags that applies to the NEXT request frame on the
// connection and produces no response frame of its own. Making the
// context its own frame (rather than a flagged variant of every request)
// keeps the unsampled wire format byte-identical to older protocol
// revisions: a client that never samples emits exactly the old byte
// stream, and a sampling client talking to an old server fails fast with
// a visible unknown-opcode error instead of silently corrupting state.
const OpTraceCtx byte = 0x12

// TraceFlagSampled marks the next frame as sampled: the server records
// its spans in the flight recorder under the carried trace ID.
const TraceFlagSampled byte = 1 << 0

// traceCtxSize is the OpTraceCtx payload: u64 traceID + u8 flags.
const traceCtxSize = 9

// AppendTraceCtx appends a trace-context envelope frame.
func AppendTraceCtx(dst []byte, traceID uint64, flags byte) []byte {
	dst = appendHeader(dst, OpTraceCtx, traceCtxSize)
	dst = binary.LittleEndian.AppendUint64(dst, traceID)
	return append(dst, flags)
}

// DecodeTraceCtx decodes an OpTraceCtx payload. Unknown flag bits are
// ignored (not rejected): the envelope is advisory observability
// metadata, so a newer client bit must not break an older server that
// already understands the frame.
func DecodeTraceCtx(p []byte) (traceID uint64, flags byte, err error) {
	if len(p) != traceCtxSize {
		return 0, 0, fmt.Errorf("wire: TRACECTX payload %d bytes, want %d", len(p), traceCtxSize)
	}
	return binary.LittleEndian.Uint64(p), p[8], nil
}

// MaxMixedBatch is the largest element count a MIXEDBATCH frame may
// carry: its worst-case entry (a PUT) is 17 payload bytes.
const MaxMixedBatch = (MaxFrame - HeaderSize - 4) / 17

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
// an explicit durability section so remote clients (and the ehload /
// ehstore outputs) can read the WAL's state without knowing the Stats
// struct's field names.
// Forward compatibility is part of the contract: the payload is decoded
// with encoding/json defaults, which ignore unknown fields, so an old
// client reading a newer server's reply (extra sections, extra counters)
// sees everything it knows about and skips the rest — version skew
// between ehload/ehstore and the server is expected during rollouts.
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
	// Ops counts operations served (a MIXEDBATCH frame counts each entry).
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

// AppendMixedBatch appends an OpMixedBatch request frame, pinning the
// mixed layout even for a uniform batch — the response layout follows
// the request opcode, so the submitting client must know which one went
// out.
func AppendMixedBatch(dst []byte, b *op.Batch) []byte {
	n := b.PayloadSizeMixed()
	dst = appendHeader(dst, OpMixedBatch, n)
	return b.AppendMixedPayload(dst)
}

// DecodeBatch decodes a batch payload under its op batch code (a
// MIXEDBATCH request frame, or a shipped WAL record of any batch code)
// into b. b retains payload (aliased) as its pre-encoded form, so the WAL
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

// AppendMixedResults appends the MIXEDBATCH StatusOK response: one flag
// per entry (presence for GET/DEL, acceptance for PUT), then one u64
// value per GET entry in entry order (zero where absent).
func AppendMixedResults(dst []byte, b *op.Batch, r *op.Results) []byte {
	n := b.Len()
	dst = appendHeader(dst, StatusOK, 4+n+8*b.Gets())
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	for _, ok := range r.Found {
		dst = append(dst, boolByte(ok))
	}
	for i, k := range b.Kinds() {
		if k == op.Get {
			dst = binary.LittleEndian.AppendUint64(dst, r.Vals[i])
		}
	}
	return dst
}

// DecodeMixedResults decodes a MIXEDBATCH StatusOK payload against the
// kinds of the batch that was sent, filling r with one outcome per
// entry.
func DecodeMixedResults(payload []byte, kinds []op.Kind, r *op.Results) error {
	n := len(kinds)
	if len(payload) < 4 {
		return fmt.Errorf("wire: mixed batch response %d bytes, need at least 4", len(payload))
	}
	if got := int(Uint32(payload, 0)); got != n {
		return fmt.Errorf("wire: mixed batch response carries %d entries, want %d", got, n)
	}
	gets := 0
	for _, k := range kinds {
		if k == op.Get {
			gets++
		}
	}
	if want := 4 + n + 8*gets; len(payload) != want {
		return fmt.Errorf("wire: mixed batch response %d bytes, want %d", len(payload), want)
	}
	r.Reset(n)
	valCol := payload[4+n:]
	vi := 0
	for i, k := range kinds {
		r.Found[i] = payload[4+i] == 1
		if k == op.Get {
			r.Vals[i] = Uint64(valCol, 8*vi)
			vi++
		}
	}
	return nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// ReadFrame reads one frame from r, reusing buf for the payload when it
// fits. It returns the tag, the payload (valid until the next call that
// reuses buf), the possibly grown buffer, and the first error. A length
// below 1 or above MaxFrame is rejected before any payload is read.
func ReadFrame(r io.Reader, buf []byte) (tag byte, payload, newBuf []byte, err error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n < 1 || n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("wire: frame length %d out of range [1, %d]", n, MaxFrame)
	}
	tag = hdr[4]
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

// Uint64 decodes the u64 at offset off of a payload.
func Uint64(p []byte, off int) uint64 { return binary.LittleEndian.Uint64(p[off:]) }

// Uint32 decodes the u32 at offset off of a payload.
func Uint32(p []byte, off int) uint32 { return binary.LittleEndian.Uint32(p[off:]) }
