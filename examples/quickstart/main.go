// Quickstart: open a Shortcut-EH index with a single call, insert a
// million entries, and watch the shortcut directory take over lookups
// once it is in sync.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"vmshortcut"
)

func main() {
	// One call: Open creates and owns the pool of physical pages backing
	// the buckets; the shortcut directory rewires its virtual pages
	// straight onto them. Close releases both.
	idx, err := vmshortcut.Open(vmshortcut.KindShortcutEH)
	if err != nil {
		log.Fatalf("opening Shortcut-EH: %v", err)
	}
	defer idx.Close()

	const n = 1_000_000
	start := time.Now()
	for k := uint64(1); k <= n; k++ {
		if err := idx.Insert(k, k*k); err != nil {
			log.Fatalf("insert: %v", err)
		}
	}
	fmt.Printf("inserted %d entries in %s\n", n, time.Since(start).Round(time.Millisecond))
	st := idx.Stats()
	fmt.Printf("directory: global depth %d, %d buckets, avg fan-in %.2f\n",
		st.GlobalDepth, st.Buckets, st.AvgFanIn)

	// The mapper thread replays directory modifications asynchronously,
	// and only once someone reads: with no lookup during the load it has
	// parked. WaitSync wakes it, and it builds the shortcut once.
	if idx.WaitSync(5 * time.Second) {
		fmt.Println("shortcut directory is in sync — lookups take the page-table path")
	} else {
		fmt.Println("shortcut still catching up — lookups use the pointer directory")
	}

	start = time.Now()
	for k := uint64(1); k <= n; k++ {
		v, ok := idx.Lookup(k)
		if !ok || v != k*k {
			log.Fatalf("lookup(%d) = %d, %v", k, v, ok)
		}
	}
	fmt.Printf("looked up %d entries in %s\n", n, time.Since(start).Round(time.Millisecond))

	st = idx.Stats()
	fmt.Printf("routing: %d lookups via shortcut, %d via traditional directory\n",
		st.ShortcutLookups, st.TraditionalLookups)
	fmt.Printf("maintenance: %d splits replayed, %d directory rebuilds, %d mmap calls\n",
		st.UpdatesApplied, st.CreatesApplied, st.Remaps)
}
