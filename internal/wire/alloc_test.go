//go:build !race

package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// TestReadFrameAllocatesNothing guards the serving loop's read side: with
// the caller's payload buffer kept, reading a frame allocates nothing, so
// a pipelined request stream costs the garbage collector nothing per op.
// (The race detector allocates on its own, hence the build tag.)
func TestReadFrameAllocatesNothing(t *testing.T) {
	const frames = 32
	var stream []byte
	for i := range frames {
		stream = AppendKey(stream, OpGet, uint64(i))
	}
	src := bytes.NewReader(stream)
	br := bufio.NewReaderSize(src, 64<<10)
	buf := make([]byte, 64)
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(stream)
		br.Reset(src)
		for range frames {
			var err error
			if _, _, buf, err = ReadFrame(br, buf); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per %d pipelined frames, want 0", allocs, frames)
	}
}
