package vmshortcut

import (
	"runtime"
	"testing"
	"time"
)

// TestRangeConformance checks the Range contract on every kind (and on
// the sharded and concurrent wrappers): every inserted entry is visited
// exactly once, deleted entries are not, and returning false stops the
// iteration.
func TestRangeConformance(t *testing.T) {
	const n = uint64(3000)
	variants := []struct {
		name string
		open func(kind Kind) (Store, error)
	}{
		{"plain", func(kind Kind) (Store, error) {
			return Open(kind, WithCapacity(int(n)))
		}},
		{"concurrent", func(kind Kind) (Store, error) {
			return Open(kind, WithCapacity(int(n)), WithConcurrency(true))
		}},
		{"sharded", func(kind Kind) (Store, error) {
			return Open(kind, WithCapacity(int(n)), WithShards(3))
		}},
	}
	for _, kind := range Kinds() {
		for _, v := range variants {
			t.Run(kind.String()+"/"+v.name, func(t *testing.T) {
				s, err := v.open(kind)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				// Keys include 0.
				for i := uint64(0); i < n; i++ {
					if err := s.Insert(i, i*3); err != nil {
						t.Fatal(err)
					}
				}
				for i := uint64(0); i < n; i += 7 {
					if !s.Delete(i) {
						t.Fatalf("delete %d missed", i)
					}
				}
				seen := make(map[uint64]uint64, n)
				s.Range(func(k, val uint64) bool {
					if _, dup := seen[k]; dup {
						t.Fatalf("key %d visited twice", k)
					}
					seen[k] = val
					return true
				})
				for i := uint64(0); i < n; i++ {
					val, ok := seen[i]
					if i%7 == 0 {
						if ok {
							t.Fatalf("deleted key %d was visited", i)
						}
						continue
					}
					if !ok || val != i*3 {
						t.Fatalf("key %d: visited=%v val=%d, want %d", i, ok, val, i*3)
					}
				}
				if len(seen) != s.Len() {
					t.Fatalf("Range visited %d entries, Len reports %d", len(seen), s.Len())
				}

				// Early stop: fn returning false ends the iteration.
				visited := 0
				s.Range(func(_, _ uint64) bool {
					visited++
					return visited < 10
				})
				if visited != 10 {
					t.Fatalf("early stop visited %d entries, want 10", visited)
				}

				// A closed store ranges over nothing.
				s.Close()
				s.Range(func(_, _ uint64) bool {
					t.Fatal("Range visited an entry after Close")
					return false
				})
			})
		}
	}
}

// TestCloseStopsBackgroundGoroutines pins the documented Close ordering
// guarantee: once Close returns — on a sharded store too — every
// background maintenance goroutine the store started (the Shortcut-EH
// mapper per shard, the WAL's interval syncer) has exited.
func TestCloseStopsBackgroundGoroutines(t *testing.T) {
	countGoroutines := func() int {
		runtime.GC()
		return runtime.NumGoroutine()
	}
	baseline := countGoroutines()

	s, err := Open(KindShortcutEH, WithShards(4),
		WithWAL(t.TempDir()), WithFsync(FsyncInterval), WithFsyncInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 2000; i++ {
		if err := s.Insert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := runtime.NumGoroutine(); got <= baseline {
		t.Fatalf("expected background goroutines while open: %d <= baseline %d", got, baseline)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close must have joined them already; poll a little to absorb
	// unrelated runtime goroutines winding down.
	deadline := time.Now().Add(5 * time.Second)
	for countGoroutines() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not return to baseline after Close: %d > %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
