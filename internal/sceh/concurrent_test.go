package sceh

import (
	"sync"
	"testing"
	"time"

	"vmshortcut/internal/workload"
)

// lockedTable serializes a Table behind a readers-writer lock, the way
// the facade's WithConcurrency does: parallel Lookups, exclusive
// mutation, and the mapper thread outside the lock.
type lockedTable struct {
	mu sync.RWMutex
	t  *Table
}

func (c *lockedTable) Insert(key, value uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Insert(key, value)
}

func (c *lockedTable) Delete(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.Delete(key)
}

func (c *lockedTable) Lookup(key uint64) (uint64, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.t.Lookup(key)
}

// TestConcurrentMixedWorkload runs lock-serialized writers and parallel
// readers against one Table while its mapper thread replays splits and
// doublings: no reader may see a wrong value, and every surviving key
// must be found once the shortcut has caught up.
func TestConcurrentMixedWorkload(t *testing.T) {
	p := newPool(t)
	tbl, err := New(p, Config{PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tbl.Close() })
	c := &lockedTable{t: tbl}

	const writers = 2
	const readers = 4
	const perWriter = 15000

	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)

	// Writers own disjoint key ranges; value == key.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * perWriter
			for i := uint64(0); i < perWriter; i++ {
				if err := c.Insert(base+i+1, base+i+1); err != nil {
					errs <- err
					return
				}
				if i%7 == 0 {
					c.Delete(base + i/2 + 1)
				}
			}
			errs <- nil
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := workload.NewRNG(seed)
			for i := 0; i < 40000; i++ {
				k := uint64(rng.Intn(writers*perWriter)) + 1
				if v, ok := c.Lookup(k); ok && v != k {
					errs <- errValue(k, v)
					return
				}
			}
			errs <- nil
		}(uint64(r + 100))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if !tbl.WaitSync(10 * time.Second) {
		t.Fatal("never synced")
	}
	// Verify all surviving keys (deletions removed some of the first half
	// of each writer's range).
	for w := 0; w < writers; w++ {
		base := uint64(w) * perWriter
		for i := uint64(perWriter/2 + 1); i < perWriter; i++ {
			k := base + i + 1
			if v, ok := c.Lookup(k); !ok || v != k {
				t.Fatalf("key %d = %d,%v", k, v, ok)
			}
		}
	}
}
