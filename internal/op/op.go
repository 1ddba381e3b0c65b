// Package op defines the one batch representation the whole serving
// stack shares: a typed, arena-backed Batch carrying an ordered mix of
// GET/PUT/DEL operations over contiguous key/value storage, plus the one
// codec for its byte layout.
//
// Before this package existed, the same batch was re-packed four times on
// its way from the socket to the fsync: the wire layer decoded frames
// into ad-hoc slices, the server's coalescer gathered them into another
// set of slices, the store's batch calls took a third shape, and the WAL
// re-encoded the batch into its own record payload. The paper's core win
// — make the routing decision once per batch and amortize it down the
// stack — was being spent on re-marshalling. Now every layer passes a
// *Batch, and the encoded payload of a batch is ONE byte layout:
//
//	u32 n, n × u64 key                    CodeGetBatch, CodeDelBatch
//	u32 n, n × (u64 key, u64 value)       CodePutBatch
//	u32 n, n × u8 kind, n × u64 key,
//	       puts × u64 value               CodeMixedBatch
//
// (all integers little-endian; the mixed layout is columnar — kinds,
// then keys, then one value per PUT entry in entry order). The same code
// byte and payload bytes name the batch in a request frame
// (internal/wire) and in a WAL record (package wal), so wire/WAL layout
// equality holds by construction rather than by test: a batch decoded
// from the socket is appended to the log without re-encoding.
//
// A Batch decoded from received bytes retains them (DecodePayload), so
// Payload returns the original encoding zero-copy; a Batch built
// entry-by-entry (the server's coalescer) encodes once, into an arena
// the Batch reuses. Encodings counts actual encoding passes — the
// zero-re-encoding benchmark asserts it stays flat on the wire→WAL path.
package op

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"vmshortcut/internal/obs"
)

// Kind is the operation type of one batch entry. The numeric values are
// the wire encoding of the MIXEDBATCH kind column.
type Kind uint8

const (
	Get Kind = iota
	Put
	Del

	kindCount
)

// String returns the kind's conventional name.
func (k Kind) String() string {
	switch k {
	case Get:
		return "GET"
	case Put:
		return "PUT"
	case Del:
		return "DEL"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Batch payload codes. In the WAL they ARE the record opcodes (package
// wal aliases them), and CodeMixedBatch is also the opcode of the wire's
// one batch request frame (internal/wire aliases it): one constant, one
// layout. The same-kind codes name WAL and replication records only.
const (
	CodeGetBatch   byte = 0x05
	CodePutBatch   byte = 0x06
	CodeDelBatch   byte = 0x07
	CodeMixedBatch byte = 0x08
)

// MaxElems bounds the element count one encoded batch payload may carry.
// It matches the WAL's per-record pair cap, so any batch that decodes
// here fits one log record.
const MaxElems = 1 << 16

// encodings counts encoding passes performed by AppendPayload/Payload —
// observability for the zero-re-encoding contract of the wire→WAL path.
var encodings atomic.Uint64

// Encodings returns how many payload encoding passes this process has
// performed. A batch whose Payload is its received bytes contributes 0.
func Encodings() uint64 { return encodings.Load() }

// Batch is an ordered mix of operations with contiguous storage: entry i
// is (Kinds()[i], Keys()[i], Vals()[i]), in caller submission order. The
// vals column is parallel to the keys column and meaningful only for Put
// entries. The zero value is an empty batch ready for use; Reset empties
// it again while keeping the arenas, so a steady-state producer (the
// server's per-connection coalescer) does not allocate.
type Batch struct {
	kinds []Kind
	keys  []uint64
	vals  []uint64
	puts  int
	dels  int

	// raw is the encoded payload this batch was decoded from, aliased —
	// not copied — from the decode input; rawCode is its batch code.
	// Mutating the batch drops them. Valid only as long as the decode
	// input buffer is.
	raw     []byte
	rawCode byte

	enc []byte // arena reused by Payload when no raw bytes exist

	// trace, when set, collects per-stage timings as the batch moves
	// through the pipeline (the durable layer fills apply and WAL-append
	// stages). Connection infrastructure, not batch content: Reset keeps
	// it, since the server installs it once per connection.
	trace *obs.Trace
}

// SetTrace installs a per-stage timing collector carried by the batch
// through the pipeline. Layers that see only the batch (durability)
// record their stage durations into it; nil disables collection.
func (b *Batch) SetTrace(t *obs.Trace) { b.trace = t }

// Trace returns the installed timing collector, or nil.
func (b *Batch) Trace() *obs.Trace { return b.trace }

// Reset empties the batch, retaining its storage for reuse.
func (b *Batch) Reset() {
	b.kinds = b.kinds[:0]
	b.keys = b.keys[:0]
	b.vals = b.vals[:0]
	b.puts, b.dels = 0, 0
	b.raw, b.rawCode = nil, 0
}

// Len returns the number of entries.
func (b *Batch) Len() int { return len(b.kinds) }

// Gets returns the number of Get entries.
func (b *Batch) Gets() int { return len(b.kinds) - b.puts - b.dels }

// Puts returns the number of Put entries.
func (b *Batch) Puts() int { return b.puts }

// Dels returns the number of Del entries.
func (b *Batch) Dels() int { return b.dels }

// Mutations returns the number of entries that change the keyspace —
// zero means the batch needs no WAL record.
func (b *Batch) Mutations() int { return b.puts + b.dels }

// Kinds returns the kind column. Read-only; valid until the next
// mutation or Reset.
func (b *Batch) Kinds() []Kind { return b.kinds }

// Keys returns the key column. Read-only; valid until the next mutation
// or Reset.
func (b *Batch) Keys() []uint64 { return b.keys }

// Vals returns the value column (parallel to Keys; zero for non-Put
// entries). Read-only; valid until the next mutation or Reset.
func (b *Batch) Vals() []uint64 { return b.vals }

// Grow pre-sizes the batch's arenas for n additional entries.
func (b *Batch) Grow(n int) {
	if cap(b.kinds)-len(b.kinds) >= n {
		return
	}
	want := len(b.kinds) + n
	kinds := make([]Kind, len(b.kinds), want)
	keys := make([]uint64, len(b.keys), want)
	vals := make([]uint64, len(b.vals), want)
	copy(kinds, b.kinds)
	copy(keys, b.keys)
	copy(vals, b.vals)
	b.kinds, b.keys, b.vals = kinds, keys, vals
}

// Get appends a lookup entry.
func (b *Batch) Get(key uint64) { b.add(Get, key, 0) }

// Put appends an upsert entry.
func (b *Batch) Put(key, value uint64) { b.add(Put, key, value) }

// Del appends a delete entry.
func (b *Batch) Del(key uint64) { b.add(Del, key, 0) }

// Add appends one entry of kind k (value is ignored unless k is Put).
func (b *Batch) Add(k Kind, key, value uint64) { b.add(k, key, value) }

func (b *Batch) add(k Kind, key, value uint64) {
	if k != Put {
		value = 0
	}
	b.kinds = append(b.kinds, k)
	b.keys = append(b.keys, key)
	b.vals = append(b.vals, value)
	switch k {
	case Put:
		b.puts++
	case Del:
		b.dels++
	}
	b.raw = nil // the retained encoding no longer matches
}

// Code returns the batch's payload code: the code it was decoded under,
// or — for a built batch — the most specific one (a uniform batch
// encodes as its kind-specific layout, anything else as CodeMixedBatch).
func (b *Batch) Code() byte {
	if b.raw != nil {
		return b.rawCode
	}
	n := b.Len()
	switch {
	case n == 0:
		return CodeMixedBatch
	case b.puts == n:
		return CodePutBatch
	case b.dels == n:
		return CodeDelBatch
	case b.puts == 0 && b.dels == 0:
		return CodeGetBatch
	}
	return CodeMixedBatch
}

// Payload returns the batch's encoded payload and its code. A batch
// decoded from received bytes returns them as-is — zero copy, zero
// re-encoding; a built batch encodes once into an arena the batch owns.
// The returned slice is valid until the next Payload call, mutation, or
// Reset (for decoded batches: as long as the decode input buffer is).
func (b *Batch) Payload() (code byte, payload []byte) {
	if b.raw != nil {
		return b.rawCode, b.raw
	}
	code = b.Code()
	b.enc = b.AppendPayload(b.enc[:0])
	return code, b.enc
}

// AppendPayload appends the batch's payload encoding (per Code) to dst.
// Unlike Payload it always encodes, so it counts toward Encodings.
func (b *Batch) AppendPayload(dst []byte) []byte {
	encodings.Add(1)
	switch b.Code() {
	case CodeGetBatch, CodeDelBatch:
		return AppendKeysPayload(dst, b.keys)
	case CodePutBatch:
		return AppendPairsPayload(dst, b.keys, b.vals)
	}
	return b.appendMixedPayload(dst)
}

// AppendKeysPayload appends the keys-only batch payload (CodeGetBatch,
// CodeDelBatch): u32 n, n × u64 key.
func AppendKeysPayload(dst []byte, keys []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return dst
}

// AppendPairsPayload appends the pairs batch payload (CodePutBatch):
// u32 n, n × (u64 key, u64 value). len(values) must equal len(keys).
func AppendPairsPayload(dst []byte, keys, values []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for i, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
		dst = binary.LittleEndian.AppendUint64(dst, values[i])
	}
	return dst
}

// AppendMixedPayload appends the batch in the CodeMixedBatch layout
// regardless of uniformity — for callers that must pin the frame shape
// (the client's MIXEDBATCH submission, whose response layout follows the
// request opcode). It counts as an encoding pass.
func (b *Batch) AppendMixedPayload(dst []byte) []byte {
	encodings.Add(1)
	return b.appendMixedPayload(dst)
}

// appendMixedPayload appends the columnar mixed payload: u32 n, the kind
// column, the key column, then one value per Put entry in entry order.
func (b *Batch) appendMixedPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.kinds)))
	for _, k := range b.kinds {
		dst = append(dst, byte(k))
	}
	for _, k := range b.keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	for i, k := range b.kinds {
		if k == Put {
			dst = binary.LittleEndian.AppendUint64(dst, b.vals[i])
		}
	}
	return dst
}

// PayloadSize returns the encoded size of the batch's payload under its
// current Code.
func (b *Batch) PayloadSize() int {
	n := b.Len()
	switch b.Code() {
	case CodeGetBatch, CodeDelBatch:
		return 4 + 8*n
	case CodePutBatch:
		return 4 + 16*n
	}
	return b.PayloadSizeMixed()
}

// PayloadSizeMixed returns the encoded size of the batch's payload in
// the CodeMixedBatch layout.
func (b *Batch) PayloadSizeMixed() int {
	n := b.Len()
	return 4 + n + 8*n + 8*b.puts
}

// DecodePayload decodes a batch payload of the given code into b,
// replacing its contents. On success b retains p (aliased, not copied)
// as its pre-encoded payload, so Payload is zero-copy afterwards; p must
// stay immutable and alive for as long as that matters to the caller.
func DecodePayload(code byte, p []byte, b *Batch) error {
	if len(p) < 4 {
		return fmt.Errorf("op: batch payload %d bytes, need at least 4", len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if n > MaxElems {
		return fmt.Errorf("op: batch of %d elements exceeds max %d", n, MaxElems)
	}
	b.Reset()
	b.Grow(n)
	switch code {
	case CodeGetBatch, CodeDelBatch:
		if len(p) != 4+8*n {
			return fmt.Errorf("op: batch payload %d bytes, want %d for %d keys", len(p), 4+8*n, n)
		}
		kind := Get
		if code == CodeDelBatch {
			kind = Del
			b.dels = n
		}
		for i := 0; i < n; i++ {
			b.kinds = append(b.kinds, kind)
			b.keys = append(b.keys, binary.LittleEndian.Uint64(p[4+8*i:]))
			b.vals = append(b.vals, 0)
		}
	case CodePutBatch:
		if len(p) != 4+16*n {
			return fmt.Errorf("op: batch payload %d bytes, want %d for %d pairs", len(p), 4+16*n, n)
		}
		b.puts = n
		for i := 0; i < n; i++ {
			b.kinds = append(b.kinds, Put)
			b.keys = append(b.keys, binary.LittleEndian.Uint64(p[4+16*i:]))
			b.vals = append(b.vals, binary.LittleEndian.Uint64(p[4+16*i+8:]))
		}
	case CodeMixedBatch:
		if len(p) < 4+n {
			return fmt.Errorf("op: mixed batch payload %d bytes, need %d for the kind column", len(p), 4+n)
		}
		kinds := p[4 : 4+n]
		puts := 0
		for _, k := range kinds {
			if Kind(k) >= kindCount {
				return fmt.Errorf("op: unknown entry kind %d", k)
			}
			if Kind(k) == Put {
				puts++
			}
		}
		if want := 4 + n + 8*n + 8*puts; len(p) != want {
			return fmt.Errorf("op: mixed batch payload %d bytes, want %d for %d entries (%d puts)",
				len(p), want, n, puts)
		}
		keyCol := p[4+n:]
		valCol := p[4+n+8*n:]
		vi := 0
		for i := 0; i < n; i++ {
			k := Kind(kinds[i])
			var v uint64
			if k == Put {
				v = binary.LittleEndian.Uint64(valCol[8*vi:])
				vi++
			}
			b.kinds = append(b.kinds, k)
			b.keys = append(b.keys, binary.LittleEndian.Uint64(keyCol[8*i:]))
			b.vals = append(b.vals, v)
			switch k {
			case Put:
				b.puts++
			case Del:
				b.dels++
			}
		}
	default:
		return fmt.Errorf("op: unknown batch code 0x%02x", code)
	}
	b.raw, b.rawCode = p, code
	return nil
}

// CountRuns returns, per kind, how many maximal same-kind runs of the
// kind column have more than one entry. This is the store layers' shared
// definition of a "batch call" for the Stats counters: a multi-entry run
// executes as one native batch call, a single entry as a single op.
func CountRuns(kinds []Kind) (runs [3]uint64) {
	for i := 0; i < len(kinds); {
		j := i + 1
		for j < len(kinds) && kinds[j] == kinds[i] {
			j++
		}
		if j-i > 1 {
			runs[kinds[i]]++
		}
		i = j
	}
	return runs
}

// Results holds the per-entry outcomes of an applied batch, parallel to
// the batch's entries: Found[i] is presence for Get and Del entries (and
// acceptance for Put entries), Vals[i] is the value of a Get hit. Reset
// sizes and zeroes it; the arenas are reused.
type Results struct {
	Found []bool
	Vals  []uint64
}

// Reset sizes the results for n entries, all zero.
func (r *Results) Reset(n int) {
	if cap(r.Found) < n {
		r.Found = make([]bool, n)
		r.Vals = make([]uint64, n)
	} else {
		r.Found = r.Found[:n]
		r.Vals = r.Vals[:n]
		for i := range r.Found {
			r.Found[i] = false
			r.Vals[i] = 0
		}
	}
}
