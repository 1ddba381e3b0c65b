//go:build !race

package wal

import (
	"testing"

	"vmshortcut/internal/op"
)

// TestAppendBatchAllocatesNothing guards the durable write path: writing a
// record (header, CRC, payload into the segment buffer) allocates nothing,
// so the WAL adds no garbage per operation. Under FsyncAlways each append
// also leads its own fdatasync, which reaches the segment's descriptor
// through the RawConn taken when the segment opened. (The race detector
// allocates on its own, hence the build tag.)
func TestAppendBatchAllocatesNothing(t *testing.T) {
	var b op.Batch
	for i := range uint64(16) {
		b.Put(i, i)
	}
	code, payload := b.Payload()
	for _, mode := range []FsyncMode{FsyncOff, FsyncAlways} {
		l, err := Open(t.TempDir(), Options{Mode: mode}, nil)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := l.AppendBatch(code, payload); err != nil {
				t.Fatal(err)
			}
		})
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Fatalf("fsync %v: %v allocations per record, want 0", mode, allocs)
		}
	}
}
