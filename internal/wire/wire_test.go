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

	tag, p = roundTrip(t, AppendKey(nil, OpDel, 9))
	if tag != OpDel || len(p) != 8 || Uint64(p, 0) != 9 {
		t.Fatalf("DEL frame = tag %d payload %x", tag, p)
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

// TestReadFrameLargerThanConnBuffer reads a STATS reply whose body
// exceeds the 64 KiB connection buffer, followed by a small frame: the
// body reads through the buffer intact and the next frame stays aligned.
func TestReadFrameLargerThanConnBuffer(t *testing.T) {
	body := make([]byte, 100<<10)
	for i := range body {
		body[i] = byte(i * 7)
	}
	stream := AppendFrame(nil, StatusOK, body)
	stream = AppendKey(stream, OpDel, 42)
	br := bufio.NewReaderSize(bytes.NewReader(stream), 64<<10)
	tag, p, _, err := ReadFrame(br, nil)
	if err != nil || tag != StatusOK {
		t.Fatalf("large frame: tag 0x%02x, %v", tag, err)
	}
	if !bytes.Equal(p, body) {
		t.Fatal("large frame body differs after the read")
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
