package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"

	"vmshortcut/internal/op"
)

// roundTrip feeds an encoded frame back through ReadFrame.
func roundTrip(t *testing.T, frame []byte) (byte, []byte) {
	t.Helper()
	tag, payload, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), nil)
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

// TestReadFrameRejectsBadLengths pins the frame reader's failures: a
// length outside [1, MaxFrame] fails with nothing consumed — no body byte,
// not even the header — a stream that ends between frames is io.EOF, one
// that ends inside a header is io.ErrUnexpectedEOF (as io.ReadFull
// reports it), and one that ends inside a body is a short-body error.
func TestReadFrameRejectsBadLengths(t *testing.T) {
	for _, n := range []uint32{0, MaxFrame + 1} {
		bad := binary.LittleEndian.AppendUint32(nil, n)
		bad = append(bad, OpGet, 1, 2, 3, 4, 5, 6, 7, 8)
		br := bufio.NewReader(bytes.NewReader(bad))
		if _, _, _, err := ReadFrame(br, nil); err == nil {
			t.Fatalf("length %d accepted", n)
		}
		if br.Buffered() != len(bad) {
			t.Fatalf("length %d: %d of %d bytes left after the error, want all", n, br.Buffered(), len(bad))
		}
	}
	if _, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(nil)), nil); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	frame := AppendKey(nil, OpGet, 1)
	for cut := 1; cut < HeaderSize; cut++ {
		_, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame[:cut])), nil)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("header cut at %d bytes: %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// Truncated body: header promises 9 payload bytes, stream has 2.
	short := frame[:HeaderSize+2]
	if _, _, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(short)), nil); err == nil {
		t.Fatal("truncated body accepted")
	} else if !strings.Contains(err.Error(), "short frame body") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestReadFrameLargerThanConnBuffer reads a MIXEDBATCH frame whose body
// exceeds the 64 KiB connection buffer, followed by a small frame: the
// body reads through the buffer intact and the next frame stays aligned.
func TestReadFrameLargerThanConnBuffer(t *testing.T) {
	var b op.Batch
	for i := range uint64(8000) {
		if i%3 == 0 {
			b.Put(i, ^i)
		} else {
			b.Get(i)
		}
	}
	stream := AppendMixedBatch(nil, &b)
	if len(stream) <= 64<<10 {
		t.Fatalf("frame is %d bytes, want more than the 64 KiB buffer", len(stream))
	}
	stream = AppendKey(stream, OpDel, 42)
	br := bufio.NewReaderSize(bytes.NewReader(stream), 64<<10)
	tag, p, _, err := ReadFrame(br, nil)
	if err != nil || tag != OpMixedBatch {
		t.Fatalf("large frame: tag 0x%02x, %v", tag, err)
	}
	var got op.Batch
	if err := DecodeBatch(tag, p, &got); err != nil {
		t.Fatal(err)
	}
	if got.Len() != b.Len() {
		t.Fatalf("decoded %d entries, want %d", got.Len(), b.Len())
	}
	for i := range b.Len() {
		if got.Kinds()[i] != b.Kinds()[i] || got.Keys()[i] != b.Keys()[i] || got.Vals()[i] != b.Vals()[i] {
			t.Fatalf("entry %d differs after the read", i)
		}
	}
	tag, p, _, err = ReadFrame(br, nil)
	if err != nil || tag != OpDel || Uint64(p, 0) != 42 {
		t.Fatalf("frame after the large one: tag 0x%02x %x, %v", tag, p, err)
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
	_, payload, newBuf, err := ReadFrame(bufio.NewReader(bytes.NewReader(frame)), buf)
	if err != nil {
		t.Fatal(err)
	}
	if &newBuf[0] != &buf[0] || &payload[0] != &buf[0] {
		t.Fatal("ReadFrame allocated despite a large enough buffer")
	}
}
