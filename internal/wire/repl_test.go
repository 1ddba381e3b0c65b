package wire

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vmshortcut/internal/op"
)

// TestWireNumbersArePinned fixes the byte value of every request opcode,
// response status and replication stream tag. They are the protocol:
// a renumbering — say, dropping a retired tag from an iota instead of
// holding its place — would make this revision misread every frame of
// an older peer.
func TestWireNumbersArePinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want byte
	}{
		{"OpGet", OpGet, 0x01},
		{"OpPut", OpPut, 0x02},
		{"OpDel", OpDel, 0x03},
		{"OpStats", OpStats, 0x04},
		{"OpMixedBatch", OpMixedBatch, 0x08},
		{"OpReplSync", OpReplSync, 0x10},
		{"OpPromote", OpPromote, 0x11},
		{"StatusOK", StatusOK, 0x00},
		{"StatusNotFound", StatusNotFound, 0x01},
		{"StatusErr", StatusErr, 0x02},
		{"StatusReadOnly", StatusReadOnly, 0x03},
		{"StatusStale", StatusStale, 0x04},
		{"ReplSnapBegin", ReplSnapBegin, 0x20},
		{"ReplSnapChunk", ReplSnapChunk, 0x21},
		{"ReplSnapEnd", ReplSnapEnd, 0x22},
		{"ReplRecord", ReplRecord, 0x23},
		{"ReplHeartbeat", ReplHeartbeat, 0x25},
		{"ReplAck", ReplAck, 0x26},
	} {
		if c.got != c.want {
			t.Errorf("%s = 0x%02x, want 0x%02x", c.name, c.got, c.want)
		}
		if c.got == 0x24 {
			t.Errorf("%s = 0x24, the retired hashed-record tag", c.name)
		}
	}
}

func TestReplFrameRoundTrips(t *testing.T) {
	frame := AppendReplSync(nil, 42)
	tag, p := roundTrip(t, frame)
	if tag != OpReplSync || len(frame) != HeaderSize+9 || p[8] != 0 {
		t.Fatalf("REPLSYNC frame = tag %d, %d bytes, flags 0x%02x", tag, len(frame), p[8])
	}
	from, err := DecodeReplSync(p)
	if err != nil || from != 42 {
		t.Fatalf("REPLSYNC decode = (%d, %v)", from, err)
	}

	tag, p = roundTrip(t, AppendReplSnapBegin(nil, 7, 123456))
	if tag != ReplSnapBegin {
		t.Fatalf("SNAPBEGIN tag = %d", tag)
	}
	lsn, size, err := DecodeReplSnapBegin(p)
	if err != nil || lsn != 7 || size != 123456 {
		t.Fatalf("SNAPBEGIN decode = (%d, %d, %v)", lsn, size, err)
	}

	var b op.Batch
	b.Put(1, 2)
	b.Del(3)
	b.Get(4)
	code, payload := b.Payload()

	tag, p = roundTrip(t, AppendReplRecord(nil, 9, code, payload))
	if tag != ReplRecord {
		t.Fatalf("RECORD tag = %d", tag)
	}
	lsn, gotCode, gotPayload, err := DecodeReplRecord(p)
	if err != nil || lsn != 9 || gotCode != code {
		t.Fatalf("RECORD decode = (%d, 0x%02x, %v)", lsn, gotCode, err)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("RECORD payload not byte-identical")
	}

	for _, u64tag := range []byte{ReplHeartbeat, ReplAck} {
		tag, p = roundTrip(t, AppendReplU64(nil, u64tag, 1<<40))
		if tag != u64tag {
			t.Fatalf("u64 frame tag = %d, want %d", tag, u64tag)
		}
		if got, err := DecodeReplU64(p); err != nil || got != 1<<40 {
			t.Fatalf("u64 frame decode = (%d, %v)", got, err)
		}
	}
}

func TestDecodeReplRejectsMalformed(t *testing.T) {
	if _, err := DecodeReplSync([]byte{1, 2, 3}); err == nil {
		t.Fatal("short REPLSYNC accepted")
	}
	// Every non-zero flags byte is refused, the retired capabilities
	// included: 0x01 asked for hashed records and 0x02 for trace frames.
	// An old follower asking for either must be turned away, not handed
	// a stream without what it asked for.
	for _, flags := range []byte{0x01, 0x02, 0xFE} {
		if _, err := DecodeReplSync(append(make([]byte, 8), flags)); err == nil {
			t.Fatalf("REPLSYNC flags 0x%02x accepted", flags)
		}
	}
	if _, _, err := DecodeReplSnapBegin(make([]byte, 15)); err == nil {
		t.Fatal("short SNAPBEGIN accepted")
	}
	if _, _, _, err := DecodeReplRecord(make([]byte, 12)); err == nil {
		t.Fatal("truncated record frame accepted")
	}
	bad := make([]byte, 13)
	bad[8] = OpGet // not a batch code
	if _, _, _, err := DecodeReplRecord(bad); err == nil {
		t.Fatal("non-batch record code accepted")
	}
	if _, err := DecodeReplU64(make([]byte, 7)); err == nil {
		t.Fatal("short position frame accepted")
	}
}

// TestReadReplFrameAdmitsOversizedRecords pins why ReadReplFrame exists:
// a max-size batch plus the stream prefix overflows the request bound,
// and must still flow on a replication stream.
func TestReadReplFrameAdmitsOversizedRecords(t *testing.T) {
	payload := make([]byte, MaxFrame+20)
	frame := AppendFrame(nil, ReplSnapChunk, payload)
	if _, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil); err == nil {
		t.Fatal("request-path reader accepted an oversized frame")
	}
	tag, p, _, err := ReadReplFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil {
		t.Fatalf("ReadReplFrame: %v", err)
	}
	if tag != ReplSnapChunk || len(p) != len(payload) {
		t.Fatalf("ReadReplFrame = tag %d, %d bytes", tag, len(p))
	}
	huge := make([]byte, HeaderSize)
	huge[0] = 0xFF
	huge[1] = 0xFF
	huge[2] = 0xFF
	huge[3] = 0x7F
	if _, _, _, err := ReadReplFrame(bufio.NewReader(bytes.NewReader(huge)), nil); err == nil {
		t.Fatal("ReadReplFrame accepted an unbounded length")
	}
}

// TestStatsReplyVersionSkew is the rollout contract (see StatsReply): an
// old binary must decode a newer server's reply — unknown sections and
// counters skipped, known fields intact — and a new binary must decode an
// old server's reply with the replication fields at their zero values.
func TestStatsReplyVersionSkew(t *testing.T) {
	// A "future" server: every known section has extra fields, plus a
	// whole unknown top-level section.
	future := `{
		"server": {"active_conns": 3, "ops": 77, "qps_estimate": 123.4},
		"store": {"len": 9},
		"durability": {"wal_records": 5, "wal_group_commits": 2},
		"role": "replica",
		"replication": {
			"primary": {"followers": 2, "lag_records": 9, "lag_ms": 4, "quorum_acks": 1},
			"replica": {"primary_addr": "h:1", "applied_lsn": 5, "lag_records": 3, "lag_ms": 12, "lag_histogram": [1,2,3]},
			"consensus": {"term": 7}
		},
		"obs": {
			"stages": {
				"shard_apply": {"count": 4, "p99_ns": 900, "p999_ns": 1200},
				"gpu_offload": {"count": 1, "p99_ns": 5}
			},
			"frames_by_op": {"get": 2, "teleport": 1},
			"slow_ops": 3,
			"trace_spans": 12
		},
		"hotkeys": {
			"hit_rate": 0.75,
			"cache_reads": 30,
			"cache_misses": 10,
			"top": [{"key": 7, "hits": 21, "last_seen_ns": 99}],
			"evictions": 5
		},
		"sharding": {"shards": 16}
	}`
	var r StatsReply
	if err := json.Unmarshal([]byte(future), &r); err != nil {
		t.Fatalf("future reply must decode: %v", err)
	}
	if r.Server.ActiveConns != 3 || r.Server.Ops != 77 || r.Durability.WALRecords != 5 {
		t.Fatalf("known fields lost: %+v", r)
	}
	if r.Role != "replica" || r.Replication == nil || r.Replication.Replica == nil {
		t.Fatalf("replication section lost: %+v", r.Replication)
	}
	if r.Replication.Replica.PrimaryAddr != "h:1" || r.Replication.Replica.AppliedLSN != 5 {
		t.Fatalf("replica counters lost: %+v", r.Replication.Replica)
	}
	// The lag gauges ride the same add-only contract on both ends.
	if r.Replication.Replica.LagRecords != 3 {
		t.Fatalf("replica lag fields lost: %+v", r.Replication.Replica)
	}
	if r.Replication.Primary == nil || r.Replication.Primary.LagRecords != 9 {
		t.Fatalf("primary lag fields lost: %+v", r.Replication.Primary)
	}
	// The obs section rides the same contract: stage maps keep keys this
	// binary has never heard of, and summaries tolerate extra percentile
	// fields.
	if r.Obs == nil || r.Obs.SlowOps != 3 {
		t.Fatalf("obs section lost: %+v", r.Obs)
	}
	if got := r.Obs.Stages["shard_apply"]; got.Count != 4 || got.P99NS != 900 {
		t.Fatalf("known stage summary lost: %+v", got)
	}
	if got := r.Obs.Stages["gpu_offload"]; got.Count != 1 {
		t.Fatalf("unknown stage key dropped: %+v", r.Obs.Stages)
	}
	if r.Obs.Frames["teleport"] != 1 {
		t.Fatalf("unknown frame opcode dropped: %+v", r.Obs.Frames)
	}
	// The "hotkeys" section above is what servers that still ran the
	// hot-key read cache sent; this binary no longer knows it and must
	// skip it like any other unknown section (the decode above succeeded).

	// An "old" server: no role, no replication.
	old := `{"server": {"ops": 1}, "store": {}, "durability": {}}`
	r = StatsReply{}
	if err := json.Unmarshal([]byte(old), &r); err != nil {
		t.Fatalf("old reply must decode: %v", err)
	}
	if r.Role != "" || r.Replication != nil {
		t.Fatalf("old reply grew replication state: %+v", r)
	}

	// And the new fields stay out of the payload when unset, so old
	// strict readers (none exist, but the bytes are the contract) see the
	// shape they always saw.
	blob, err := json.Marshal(StatsReply{})
	if err != nil {
		t.Fatal(err)
	}
	for _, banned := range []string{"role", "replication", "read_only_rejects", "stale_rejects", "obs", "hotkeys"} {
		if strings.Contains(string(blob), banned) {
			t.Fatalf("zero-value reply leaks %q: %s", banned, blob)
		}
	}
}

// FuzzDecodeReplFrame throws arbitrary tag/payload pairs at the
// replication decoders: they must never panic, and whatever they accept
// must re-encode to the identical frame (the codec is bijective), same
// harness style as FuzzDecodeMixedPayload.
func FuzzDecodeReplFrame(f *testing.F) {
	var b op.Batch
	b.Put(1, 2)
	b.Get(3)
	code, payload := b.Payload()
	seed := func(frame []byte) { f.Add(frame[4], frame[HeaderSize:]) }
	seed(AppendReplSync(nil, 0))
	seed(AppendReplSync(nil, 99))
	seed(AppendReplSnapBegin(nil, 12, 1<<20))
	seed(AppendReplRecord(nil, 13, code, payload))
	seed(AppendReplU64(nil, ReplHeartbeat, 5))
	seed(AppendReplU64(nil, ReplAck, 5))
	// Handshakes carrying the retired flags 0x01 and 0x02, which decode
	// refuses.
	for _, flags := range []byte{0x01, 0x02, 0x03} {
		f.Add(OpReplSync, append(make([]byte, 8), flags))
	}
	f.Add(ReplRecord, []byte{})
	f.Add(OpReplSync, make([]byte, replSyncSize))
	f.Fuzz(func(t *testing.T, tag byte, p []byte) {
		switch tag {
		case OpReplSync:
			from, err := DecodeReplSync(p)
			if err != nil {
				return
			}
			if re := AppendReplSync(nil, from)[HeaderSize:]; !bytes.Equal(re, p) {
				t.Fatalf("REPLSYNC re-encode differs: %x vs %x", re, p)
			}
		case ReplSnapBegin:
			lsn, size, err := DecodeReplSnapBegin(p)
			if err != nil {
				return
			}
			if re := AppendReplSnapBegin(nil, lsn, size)[HeaderSize:]; !bytes.Equal(re, p) {
				t.Fatalf("SNAPBEGIN re-encode differs: %x vs %x", re, p)
			}
		case ReplRecord:
			lsn, code, payload, err := DecodeReplRecord(p)
			if err != nil {
				return
			}
			re := AppendReplRecord(nil, lsn, code, payload)
			if !bytes.Equal(re[HeaderSize:], p) {
				t.Fatalf("record re-encode differs")
			}
		case ReplHeartbeat, ReplAck:
			lsn, err := DecodeReplU64(p)
			if err != nil {
				return
			}
			if re := AppendReplU64(nil, tag, lsn)[HeaderSize:]; !bytes.Equal(re, p) {
				t.Fatalf("position re-encode differs: %x vs %x", re, p)
			}
		}
	})
}
