package wire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"vmshortcut/internal/op"
)

// roundTrip feeds an encoded frame back through ReadFrame.
func roundTrip(t *testing.T, frame []byte) (byte, []byte) {
	t.Helper()
	tag, payload, _, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return tag, payload
}

func TestRequestFrameRoundTrips(t *testing.T) {
	tag, p := roundTrip(t, AppendKey(nil, OpGet, 0xDEADBEEF))
	if tag != OpGet || len(p) != 8 || Uint64(p, 0) != 0xDEADBEEF {
		t.Fatalf("GET frame = tag %d payload %x", tag, p)
	}

	tag, p = roundTrip(t, AppendPut(nil, 7, 42))
	if tag != OpPut || Uint64(p, 0) != 7 || Uint64(p, 8) != 42 {
		t.Fatalf("PUT frame = tag %d payload %x", tag, p)
	}

	tag, p = roundTrip(t, AppendEmpty(nil, OpStats))
	if tag != OpStats || len(p) != 0 {
		t.Fatalf("STATS frame = tag %d payload %x", tag, p)
	}

	// A uniform batch still goes out as MIXEDBATCH: that is the only
	// batch request frame.
	keys := []uint64{1, 2, 3, ^uint64(0)}
	vals := []uint64{10, 20, 30, 40}
	var in, b op.Batch
	for i := range keys {
		in.Put(keys[i], vals[i])
	}
	tag, p = roundTrip(t, AppendMixedBatch(nil, &in))
	if tag != OpMixedBatch {
		t.Fatalf("MIXEDBATCH tag = %d", tag)
	}
	if err := DecodeBatch(tag, p, &b); err != nil || b.Len() != len(keys) {
		t.Fatalf("MIXEDBATCH decode = %d entries, %v", b.Len(), err)
	}
	for i := range keys {
		if b.Kinds()[i] != op.Put || b.Keys()[i] != keys[i] || b.Vals()[i] != vals[i] {
			t.Fatalf("MIXEDBATCH entry[%d] mismatch", i)
		}
	}
}

func TestResponseFrameRoundTrips(t *testing.T) {
	tag, p := roundTrip(t, AppendValue(nil, 99))
	if tag != StatusOK || Uint64(p, 0) != 99 {
		t.Fatalf("value response = tag %d payload %x", tag, p)
	}

	tag, p = roundTrip(t, AppendEmpty(nil, StatusNotFound))
	if tag != StatusNotFound || len(p) != 0 {
		t.Fatalf("not-found response = tag %d payload %x", tag, p)
	}

	tag, p = roundTrip(t, AppendError(nil, "boom"))
	if tag != StatusErr || string(p) != "boom" {
		t.Fatalf("error response = tag %d payload %q", tag, p)
	}

	// MIXEDBATCH response: one flag per entry, one value per GET entry.
	var b op.Batch
	b.Get(1)
	b.Del(2)
	b.Get(3)
	res := op.Results{Found: []bool{true, false, false}, Vals: []uint64{5, 0, 0}}
	tag, p = roundTrip(t, AppendMixedResults(nil, &b, &res))
	if tag != StatusOK || len(p) != 4+3+8*2 {
		t.Fatalf("mixed response = tag %d payload %x", tag, p)
	}
	var got op.Results
	if err := DecodeMixedResults(p, b.Kinds(), &got); err != nil {
		t.Fatal(err)
	}
	for i := range res.Found {
		if got.Found[i] != res.Found[i] || got.Vals[i] != res.Vals[i] {
			t.Fatalf("mixed result[%d] = (%v, %d), want (%v, %d)", i, got.Found[i], got.Vals[i], res.Found[i], res.Vals[i])
		}
	}
}

func TestReadFrameRejectsBadLengths(t *testing.T) {
	zero := make([]byte, HeaderSize) // length 0
	if _, _, _, err := ReadFrame(bytes.NewReader(zero), nil); err == nil {
		t.Fatal("length 0 accepted")
	}
	huge := make([]byte, HeaderSize)
	binary.LittleEndian.PutUint32(huge, MaxFrame+1)
	if _, _, _, err := ReadFrame(bytes.NewReader(huge), nil); err == nil {
		t.Fatal("oversized length accepted")
	}
	// Truncated body: header promises 9 payload bytes, stream has 2.
	short := AppendKey(nil, OpGet, 1)[:HeaderSize+2]
	if _, _, _, err := ReadFrame(bytes.NewReader(short), nil); err == nil {
		t.Fatal("truncated body accepted")
	} else if !strings.Contains(err.Error(), "short frame body") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestDecodeBatchRejectsMalformedPayloads(t *testing.T) {
	var b op.Batch
	if err := DecodeBatch(op.CodeGetBatch, []byte{1, 2}, &b); err == nil {
		t.Fatal("short batch header accepted")
	}
	// Count says 2 elements, payload carries 1.
	p := binary.LittleEndian.AppendUint32(nil, 2)
	p = binary.LittleEndian.AppendUint64(p, 1)
	if err := DecodeBatch(op.CodeGetBatch, p, &b); err == nil {
		t.Fatal("count/payload mismatch accepted")
	}
	// Count beyond the element cap.
	p = binary.LittleEndian.AppendUint32(nil, op.MaxElems+1)
	if err := DecodeBatch(op.CodeDelBatch, p, &b); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	frame := AppendPut(nil, 1, 2)
	buf := make([]byte, 64)
	_, payload, newBuf, err := ReadFrame(bytes.NewReader(frame), buf)
	if err != nil {
		t.Fatal(err)
	}
	if &newBuf[0] != &buf[0] || &payload[0] != &buf[0] {
		t.Fatal("ReadFrame allocated despite a large enough buffer")
	}
}

// TestTraceCtxRoundTrips pins the trace-context envelope: a 9-byte
// payload, round-tripping exactly, with unknown flag bits tolerated on
// decode (the envelope is advisory metadata — a reader that errored on
// a future flag would turn a tracing upgrade into an outage).
func TestTraceCtxRoundTrips(t *testing.T) {
	frame := AppendTraceCtx(nil, 0xDEADBEEFCAFE, TraceFlagSampled)
	tag, p := roundTrip(t, frame)
	if tag != OpTraceCtx {
		t.Fatalf("TRACECTX tag = 0x%02x", tag)
	}
	id, flags, err := DecodeTraceCtx(p)
	if err != nil || id != 0xDEADBEEFCAFE || flags != TraceFlagSampled {
		t.Fatalf("TRACECTX decode = (%x, 0x%02x, %v)", id, flags, err)
	}

	// Unknown flag bits decode cleanly; the caller sees them and ignores
	// what it does not know.
	frame = AppendTraceCtx(nil, 7, TraceFlagSampled|0x80)
	if _, flags, err = DecodeTraceCtx(frame[HeaderSize:]); err != nil || flags&TraceFlagSampled == 0 {
		t.Fatalf("future flags rejected: (0x%02x, %v)", flags, err)
	}

	// Truncated payloads are errors, not zero-valued contexts.
	if _, _, err := DecodeTraceCtx(frame[HeaderSize : HeaderSize+8]); err == nil {
		t.Fatal("short TRACECTX accepted")
	}
}
