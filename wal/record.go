// Record codec. A record is one durable unit of the log — one whole
// operation batch — framed so that replay can both detect corruption and
// recognize a torn tail:
//
//	u32 payloadLen   length of everything after the crc field
//	u32 crc          IEEE CRC32 of the payload
//	payload:
//	  u64 lsn        the record's log sequence number (strictly increasing)
//	  u8  op         the batch code: OpPut, OpDel, or OpMixed
//	  ...            the batch's payload, in the internal/op layout
//
// All integers are little-endian. The payload past the lsn is NOT a
// private format: the op byte and the bytes after it are exactly an
// internal/op batch payload — the same constants and the same codec the
// wire protocol's MIXEDBATCH frame uses (OpPut is op.CodePutBatch,
// OpMixed is op.CodeMixedBatch is wire.OpMixedBatch). A batch frame
// received from the socket therefore becomes a log record by prefixing
// lsn and code; nothing is re-encoded between the read syscall and the
// fsync. OpMixed records
// (an ordered GET/PUT/DEL mix) may contain GET entries when the wire
// payload did; replay applies the mutations and treats the GETs as
// no-ops.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"vmshortcut/internal/op"
)

// Record opcodes: the internal/op batch codes, shared — by construction,
// not convention — with the wire protocol's batch frame opcodes.
const (
	OpPut   = op.CodePutBatch
	OpDel   = op.CodeDelBatch
	OpMixed = op.CodeMixedBatch
)

// MaxRecordPairs caps the elements one record may carry, which bounds
// replay buffers. It equals op.MaxElems, so any batch the wire layer
// accepts fits one record.
const MaxRecordPairs = op.MaxElems

// recordHeaderSize is the fixed prefix: u32 payloadLen + u32 crc.
const recordHeaderSize = 8

// payloadPrefixSize is the fixed payload prefix: u64 lsn + u8 op. The
// batch payload that follows carries at least its own u32 count.
const payloadPrefixSize = 9

// minPayload is the smallest valid record payload: prefix + empty batch.
const minPayload = payloadPrefixSize + 4

// maxPayload is the largest valid payload: a full mixed record whose
// entries are all PUTs (1 kind byte + 16 pair bytes each).
const maxPayload = payloadPrefixSize + 4 + MaxRecordPairs*17

// ErrCorrupt reports a record that is structurally invalid in a position
// where a torn write cannot explain it (CRC mismatch or malformed payload
// in a non-final segment, or an inconsistent element count anywhere).
var ErrCorrupt = errors.New("wal: corrupt record")

// appendRecord appends one framed record carrying an already-encoded
// batch payload. The append hot path streams the identical layout via
// writeRecordLocked; this helper exists for tests and fuzzers that build
// records in memory.
func appendRecord(dst []byte, lsn uint64, code byte, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payloadPrefixSize+len(payload)))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	payloadAt := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, lsn)
	dst = append(dst, code)
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[payloadAt:])
	binary.LittleEndian.PutUint32(dst[crcAt:], crc)
	return dst
}

// decodeRecordPayload decodes a record payload whose CRC already matched
// into b (replacing its contents; b is safe to reuse across records).
// Every structural failure wraps ErrCorrupt — the caller decides whether
// the position makes it a torn tail instead.
func decodeRecordPayload(p []byte, b *op.Batch) (lsn uint64, code byte, err error) {
	if len(p) < minPayload {
		return 0, 0, fmt.Errorf("%w: payload %d bytes, need at least %d", ErrCorrupt, len(p), minPayload)
	}
	lsn = binary.LittleEndian.Uint64(p)
	code = p[8]
	if !validCode(code) {
		return 0, 0, fmt.Errorf("%w: unknown opcode 0x%02x", ErrCorrupt, code)
	}
	if err := op.DecodePayload(code, p[payloadPrefixSize:], b); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return lsn, code, nil
}

// validCode reports whether code is one of the three record opcodes.
func validCode(code byte) bool { return code == OpPut || code == OpDel || code == OpMixed }

// recordReader decodes one segment's records in order. It is the only
// reader of the framing: recovery and the live tailer both go through
// next and differ only in what a damaged record means to them.
type recordReader struct {
	br  *bufio.Reader
	off int64  // offset of the next record boundary
	buf []byte // payload scratch, reused across records
}

// next returns the record at the cursor: its lsn, code and whole payload
// (lsn and code prefix included), aliasing a buffer the following call
// overwrites. io.EOF is the segment's clean end: the end of the input or
// a zero length word at a record boundary — the tail of a preallocated
// segment reads as zeros and no record has length zero. A record that is
// cut short or fails its checks wraps ErrCorrupt.
func (r *recordReader) next() (lsn uint64, code byte, payload []byte, err error) {
	var hdr [recordHeaderSize]byte
	n, err := io.ReadFull(r.br, hdr[:])
	switch {
	case err == io.ErrUnexpectedEOF && hdr != [recordHeaderSize]byte{}:
		return 0, 0, nil, fmt.Errorf("%w: %d-byte record header at offset %d", ErrCorrupt, n, r.off)
	case err == io.EOF || err == io.ErrUnexpectedEOF:
		return 0, 0, nil, io.EOF // nothing left, or a zero tail shorter than a header
	case err != nil:
		return 0, 0, nil, err
	}
	payloadLen := int(binary.LittleEndian.Uint32(hdr[:4]))
	if payloadLen == 0 {
		return 0, 0, nil, io.EOF
	}
	if payloadLen < minPayload || payloadLen > maxPayload {
		return 0, 0, nil, fmt.Errorf("%w: payload length %d out of range at offset %d", ErrCorrupt, payloadLen, r.off)
	}
	if cap(r.buf) < payloadLen {
		r.buf = make([]byte, payloadLen)
	}
	payload = r.buf[:payloadLen]
	if _, err := io.ReadFull(r.br, payload); err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, 0, nil, fmt.Errorf("%w: record payload cut short at offset %d", ErrCorrupt, r.off)
	} else if err != nil {
		return 0, 0, nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return 0, 0, nil, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, r.off)
	}
	lsn, code = binary.LittleEndian.Uint64(payload), payload[8]
	if !validCode(code) {
		return 0, 0, nil, fmt.Errorf("%w: unknown opcode 0x%02x at offset %d", ErrCorrupt, code, r.off)
	}
	r.off += int64(recordHeaderSize + payloadLen)
	return lsn, code, payload, nil
}
