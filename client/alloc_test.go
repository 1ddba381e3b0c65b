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
