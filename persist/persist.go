// Package persist is the durability subsystem's snapshot layer: a
// point-in-time serialization of any Range-capable store into a compact,
// CRC-checked stream, and the matching restore. A snapshot plus the WAL
// tail after it (package wal) reconstructs the exact keyspace; taking one
// lets the log be compacted.
//
// Stream layout (all integers little-endian):
//
//	u64 magic     format identifier and version
//	u64 count     number of (key, value) pairs
//	count × (u64 key, u64 value)
//	u32 crc       IEEE CRC32 of everything before it (magic included)
//
// The trailing CRC makes validity a property of the whole file, so
// recovery can distinguish "newest valid snapshot" from a partially
// written or bit-rotted one before applying a single pair.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"vmshortcut/internal/op"
)

// Magic identifies and versions the snapshot stream format.
const Magic = uint64(0x5643_534E_4150_0001) // "VCSNAP" v1

// ErrInvalid reports a stream that is not a complete, intact snapshot.
var ErrInvalid = errors.New("persist: invalid snapshot")

// chunkPairs is the batch size Restore hands to its apply callback.
const chunkPairs = 4096

// Source is what Snapshot serializes: the Range iteration plus the entry
// count for the header. vmshortcut.Store satisfies it.
type Source interface {
	Len() int
	Range(fn func(key, value uint64) bool)
}

// Snapshot writes a point-in-time serialization of src to w. The source
// must not be mutated concurrently: the count is taken once and the pairs
// streamed from one Range pass, and a mismatch between the two fails the
// write rather than producing a silently short snapshot.
func Snapshot(w io.Writer, src Source) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)
	count := uint64(src.Len())
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], Magic)
	binary.LittleEndian.PutUint64(hdr[8:], count)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("persist: snapshot header: %w", err)
	}
	var (
		written uint64
		pair    [16]byte
		werr    error
	)
	src.Range(func(k, v uint64) bool {
		binary.LittleEndian.PutUint64(pair[0:], k)
		binary.LittleEndian.PutUint64(pair[8:], v)
		if _, err := bw.Write(pair[:]); err != nil {
			werr = err
			return false
		}
		written++
		return true
	})
	if werr != nil {
		return fmt.Errorf("persist: snapshot pair: %w", werr)
	}
	if written != count {
		return fmt.Errorf("persist: source changed during snapshot: Len reported %d pairs, Range yielded %d",
			count, written)
	}
	// Flush before reading the digest: the CRC only sees flushed bytes,
	// and the trailer itself must stay outside it — so it bypasses the
	// MultiWriter and goes straight to w.
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("persist: snapshot flush: %w", err)
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	if _, err := w.Write(trailer[:]); err != nil {
		return fmt.Errorf("persist: snapshot trailer: %w", err)
	}
	return nil
}

// Restore reads a snapshot from r, handing the pairs to apply in chunks.
// The header is validated before the first apply call and the CRC after
// the last, so a truncated or corrupt stream fails with ErrInvalid —
// possibly after some chunks were applied; use Verify first when the
// target cannot tolerate a partial restore. It returns the pair count.
func Restore(r io.Reader, apply func(keys, values []uint64) error) (uint64, error) {
	return scan(r, apply)
}

// Target is what RestoreInto restores into: the one batch call.
// vmshortcut.Store satisfies it.
type Target interface {
	ApplyBatch(b *op.Batch, res *op.Results) error
}

// RestoreInto restores a snapshot from r into dst, one all-PUT ApplyBatch
// per chunk of pairs, so a durable target logs one record per chunk
// rather than one per pair. Restore's caveats apply.
func RestoreInto(r io.Reader, dst Target) (uint64, error) {
	var (
		b   op.Batch
		res op.Results
	)
	return Restore(r, func(keys, values []uint64) error {
		b.Reset()
		b.Grow(len(keys))
		for i, k := range keys {
			b.Put(k, values[i])
		}
		return dst.ApplyBatch(&b, &res)
	})
}

// Verify reads the whole stream and checks its structure and CRC without
// retaining any data. Recovery uses it to pick the newest valid snapshot
// before mutating anything.
func Verify(r io.Reader) (uint64, error) {
	return scan(r, nil)
}

// scan drives one pass over a snapshot stream. The CRC is fed exactly the
// bytes consumed as header and pairs — the trailer is read separately —
// so the digest matches what Snapshot computed, byte for byte.
func scan(r io.Reader, apply func(keys, values []uint64) error) (uint64, error) {
	crc := crc32.NewIEEE()
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("%w: short header: %v", ErrInvalid, err)
	}
	crc.Write(hdr[:])
	if m := binary.LittleEndian.Uint64(hdr[0:]); m != Magic {
		return 0, fmt.Errorf("%w: bad magic %#x", ErrInvalid, m)
	}
	count := binary.LittleEndian.Uint64(hdr[8:])
	var (
		keys = make([]uint64, 0, chunkPairs)
		vals = make([]uint64, 0, chunkPairs)
		buf  = make([]byte, chunkPairs*16)
	)
	for read := uint64(0); read < count; {
		n := count - read
		if n > chunkPairs {
			n = chunkPairs
		}
		chunk := buf[:n*16]
		if _, err := io.ReadFull(br, chunk); err != nil {
			return 0, fmt.Errorf("%w: truncated at pair %d of %d: %v", ErrInvalid, read, count, err)
		}
		crc.Write(chunk)
		read += n
		if apply == nil {
			continue
		}
		keys, vals = keys[:0], vals[:0]
		for i := uint64(0); i < n; i++ {
			keys = append(keys, binary.LittleEndian.Uint64(chunk[16*i:]))
			vals = append(vals, binary.LittleEndian.Uint64(chunk[16*i+8:]))
		}
		if err := apply(keys, vals); err != nil {
			return 0, fmt.Errorf("persist: applying restored pairs: %w", err)
		}
	}
	var trailer [4]byte
	if _, err := io.ReadFull(br, trailer[:]); err != nil {
		return 0, fmt.Errorf("%w: missing CRC trailer: %v", ErrInvalid, err)
	}
	if got, want := binary.LittleEndian.Uint32(trailer[:]), crc.Sum32(); got != want {
		return 0, fmt.Errorf("%w: CRC mismatch: stream %#x, computed %#x", ErrInvalid, got, want)
	}
	return count, nil
}
