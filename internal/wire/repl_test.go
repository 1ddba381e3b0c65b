package wire

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vmshortcut/internal/op"
)

func TestReplFrameRoundTrips(t *testing.T) {
	tag, p := roundTrip(t, AppendReplSync(nil, 42, ReplFlagChained))
	if tag != OpReplSync {
		t.Fatalf("REPLSYNC tag = %d", tag)
	}
	from, flags, err := DecodeReplSync(p)
	if err != nil || from != 42 || flags != ReplFlagChained {
		t.Fatalf("REPLSYNC decode = (%d, 0x%02x, %v)", from, flags, err)
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

	tag, p = roundTrip(t, AppendReplRecord(nil, 9, code, nil, payload))
	if tag != ReplRecord {
		t.Fatalf("RECORD tag = %d", tag)
	}
	lsn, gotCode, hash, gotPayload, err := DecodeReplRecord(tag, p)
	if err != nil || lsn != 9 || gotCode != code || hash != nil {
		t.Fatalf("RECORD decode = (%d, 0x%02x, %v, %v)", lsn, gotCode, hash, err)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("RECORD payload not byte-identical")
	}

	var digest [ReplHashSize]byte
	for i := range digest {
		digest[i] = byte(i)
	}
	tag, p = roundTrip(t, AppendReplRecord(nil, 10, code, &digest, payload))
	if tag != ReplRecordHashed {
		t.Fatalf("RECORDHASHED tag = %d", tag)
	}
	lsn, gotCode, hash, gotPayload, err = DecodeReplRecord(tag, p)
	if err != nil || lsn != 10 || gotCode != code || !bytes.Equal(hash, digest[:]) {
		t.Fatalf("RECORDHASHED decode = (%d, 0x%02x, %x, %v)", lsn, gotCode, hash, err)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("RECORDHASHED payload not byte-identical")
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

	tag, p = roundTrip(t, AppendReplSync(nil, 8, ReplFlagChained|ReplFlagTrace))
	if tag != OpReplSync {
		t.Fatalf("trace REPLSYNC tag = %d", tag)
	}
	if from, flags, err := DecodeReplSync(p); err != nil || from != 8 || flags != ReplFlagChained|ReplFlagTrace {
		t.Fatalf("trace REPLSYNC decode = (%d, 0x%02x, %v)", from, flags, err)
	}

	tag, p = roundTrip(t, AppendReplTraceMeta(nil, 21, 0xCAFEBABE, -42))
	if tag != ReplTraceMeta {
		t.Fatalf("TRACEMETA tag = %d", tag)
	}
	mLSN, mID, mNS, err := DecodeReplTraceMeta(p)
	if err != nil || mLSN != 21 || mID != 0xCAFEBABE || mNS != -42 {
		t.Fatalf("TRACEMETA decode = (%d, %x, %d, %v)", mLSN, mID, mNS, err)
	}

	tag, p = roundTrip(t, AppendReplSpan(nil, 0xCAFEBABE, 21, 999))
	if tag != ReplSpan {
		t.Fatalf("SPAN tag = %d", tag)
	}
	sID, sLSN, sNS, err := DecodeReplSpan(p)
	if err != nil || sID != 0xCAFEBABE || sLSN != 21 || sNS != 999 {
		t.Fatalf("SPAN decode = (%x, %d, %d, %v)", sID, sLSN, sNS, err)
	}
}

func TestDecodeReplRejectsMalformed(t *testing.T) {
	if _, _, err := DecodeReplSync([]byte{1, 2, 3}); err == nil {
		t.Fatal("short REPLSYNC accepted")
	}
	if _, _, err := DecodeReplSync(append(make([]byte, 8), 0xFE)); err == nil {
		t.Fatal("unknown REPLSYNC flags accepted")
	}
	if _, _, err := DecodeReplSnapBegin(make([]byte, 15)); err == nil {
		t.Fatal("short SNAPBEGIN accepted")
	}
	if _, _, _, _, err := DecodeReplRecord(ReplRecord, make([]byte, 12)); err == nil {
		t.Fatal("truncated record frame accepted")
	}
	bad := make([]byte, 13)
	bad[8] = OpGet // not a batch code
	if _, _, _, _, err := DecodeReplRecord(ReplRecord, bad); err == nil {
		t.Fatal("non-batch record code accepted")
	}
	if _, _, _, _, err := DecodeReplRecord(ReplHeartbeat, make([]byte, 64)); err == nil {
		t.Fatal("non-record tag accepted")
	}
	if _, err := DecodeReplU64(make([]byte, 7)); err == nil {
		t.Fatal("short position frame accepted")
	}
	if _, _, _, err := DecodeReplTraceMeta(make([]byte, 23)); err == nil {
		t.Fatal("short TRACEMETA accepted")
	}
	if _, _, _, err := DecodeReplSpan(make([]byte, 23)); err == nil {
		t.Fatal("short SPAN accepted")
	}
}

// TestReadReplFrameAdmitsOversizedRecords pins why ReadReplFrame exists:
// a max-size batch plus the stream prefix overflows the request bound,
// and must still flow on a replication stream.
func TestReadReplFrameAdmitsOversizedRecords(t *testing.T) {
	payload := make([]byte, MaxFrame+20)
	frame := AppendFrame(nil, ReplSnapChunk, payload)
	if _, _, _, err := ReadFrame(bytes.NewReader(frame), nil); err == nil {
		t.Fatal("request-path reader accepted an oversized frame")
	}
	tag, p, _, err := ReadReplFrame(bytes.NewReader(frame), nil)
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
	if _, _, _, err := ReadReplFrame(bytes.NewReader(huge), nil); err == nil {
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
	if r.Replication.Replica.LagRecords != 3 || r.Replication.Replica.LagMS != 12 {
		t.Fatalf("replica lag fields lost: %+v", r.Replication.Replica)
	}
	if r.Replication.Primary == nil || r.Replication.Primary.LagRecords != 9 || r.Replication.Primary.LagMS != 4 {
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
	var digest [ReplHashSize]byte
	digest[0] = 0xAB
	seed := func(frame []byte) { f.Add(frame[4], frame[HeaderSize:]) }
	seed(AppendReplSync(nil, 0, 0))
	seed(AppendReplSync(nil, 99, ReplFlagChained))
	seed(AppendReplSnapBegin(nil, 12, 1<<20))
	seed(AppendReplRecord(nil, 13, code, nil, payload))
	seed(AppendReplRecord(nil, 13, code, &digest, payload))
	seed(AppendReplU64(nil, ReplHeartbeat, 5))
	seed(AppendReplU64(nil, ReplAck, 5))
	seed(AppendReplTraceMeta(nil, 6, 0xF00D, 123456789))
	seed(AppendReplSpan(nil, 0xF00D, 6, 4242))
	f.Add(ReplRecord, []byte{})
	f.Add(OpReplSync, make([]byte, replSyncSize))
	f.Fuzz(func(t *testing.T, tag byte, p []byte) {
		switch tag {
		case OpReplSync:
			from, flags, err := DecodeReplSync(p)
			if err != nil {
				return
			}
			if re := AppendReplSync(nil, from, flags)[HeaderSize:]; !bytes.Equal(re, p) {
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
		case ReplRecord, ReplRecordHashed:
			lsn, code, hash, payload, err := DecodeReplRecord(tag, p)
			if err != nil {
				return
			}
			var hp *[ReplHashSize]byte
			if hash != nil {
				hp = new([ReplHashSize]byte)
				copy(hp[:], hash)
			}
			re := AppendReplRecord(nil, lsn, code, hp, payload)
			if re[4] != tag || !bytes.Equal(re[HeaderSize:], p) {
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
		case ReplTraceMeta:
			lsn, id, ns, err := DecodeReplTraceMeta(p)
			if err != nil {
				return
			}
			if re := AppendReplTraceMeta(nil, lsn, id, ns)[HeaderSize:]; !bytes.Equal(re, p) {
				t.Fatalf("TRACEMETA re-encode differs: %x vs %x", re, p)
			}
		case ReplSpan:
			id, lsn, ns, err := DecodeReplSpan(p)
			if err != nil {
				return
			}
			if re := AppendReplSpan(nil, id, lsn, ns)[HeaderSize:]; !bytes.Equal(re, p) {
				t.Fatalf("SPAN re-encode differs: %x vs %x", re, p)
			}
		}
	})
}
