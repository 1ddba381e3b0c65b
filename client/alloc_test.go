//go:build !race

package client_test

import (
	"testing"

	"vmshortcut/client"
)

// TestConnOpsDoNotAllocate pins the single-op round trips at zero
// allocations once warm: Get, Put and Del reuse the Conn's own one-entry
// pipeline and result slice. The in-process server shares the count, and
// its serving path allocates nothing per operation either. (The race
// detector allocates on its own, hence the build tag.)
func TestConnOpsDoNotAllocate(t *testing.T) {
	c, err := client.DialConn(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	roundTrips := func() {
		if err := c.Put(7, 70); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := c.Get(7); err != nil || !ok || v != 70 {
			t.Fatalf("Get(7) = %d, %v, %v", v, ok, err)
		}
		if ok, err := c.Del(7); err != nil || !ok {
			t.Fatalf("Del(7) = %v, %v", ok, err)
		}
	}
	roundTrips()
	if n := testing.AllocsPerRun(200, roundTrips); n != 0 {
		t.Fatalf("Put+Get+Del allocate %.2f times per round, want 0", n)
	}
}

// TestPipelineFlushDoesNotAllocate pins a 32-op pipeline — the serving
// benchmark's unit — at zero allocations once warm: its responses are
// decoded in place from the read buffer into the caller's result slice.
func TestPipelineFlushDoesNotAllocate(t *testing.T) {
	c, err := client.DialConn(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := c.Pipeline()
	var res []client.Result
	flush := func() {
		for k := uint64(0); k < 16; k++ {
			p.Put(k, k+1)
			p.Get(k)
		}
		if res, err = p.Flush(res[:0]); err != nil || len(res) != 32 {
			t.Fatalf("Flush = %d results, %v", len(res), err)
		}
		for i, r := range res {
			if r.Err != nil || !r.Found || i%2 == 1 && r.Value != uint64(i/2)+1 {
				t.Fatalf("result %d = %+v", i, r)
			}
		}
	}
	flush()
	if n := testing.AllocsPerRun(200, flush); n != 0 {
		t.Fatalf("a 32-op Flush allocates %.2f times, want 0", n)
	}
}
