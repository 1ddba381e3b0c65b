//go:build !race

package wal

import (
	"testing"

	"vmshortcut/internal/op"
)

// TestAppendBatchAllocatesNothing guards the durable write path: writing a
// record (header, CRC, payload into the segment buffer) allocates nothing,
// so the WAL adds no garbage per operation. FsyncOff keeps the sync out
// of the measurement; the (rarer) sync path is pinned separately by the
// serve_durable allocation count. (The race detector allocates on its
// own, hence the build tag.)
func TestAppendBatchAllocatesNothing(t *testing.T) {
	l, err := Open(t.TempDir(), Options{Mode: FsyncOff}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var b op.Batch
	for i := range uint64(16) {
		b.Put(i, i)
	}
	code, payload := b.Payload()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := l.AppendBatch(code, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per record, want 0", allocs)
	}
}
