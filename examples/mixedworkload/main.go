// mixedworkload: a live view of the Figure 8 scenario — insert bursts
// desynchronize the shortcut directory, lookups transparently fall back to
// the traditional directory, and the mapper thread catches up within a few
// poll intervals.
//
// Run with: go run ./examples/mixedworkload
package main

import (
	"fmt"
	"log"
	"time"

	"vmshortcut"
)

func main() {
	idx, err := vmshortcut.Open(vmshortcut.KindShortcutEH)
	if err != nil {
		log.Fatalf("index: %v", err)
	}
	defer idx.Close()

	// Bulk load.
	const bulk = 500_000
	for k := uint64(1); k <= bulk; k++ {
		if err := idx.Insert(k, k); err != nil {
			log.Fatalf("bulk insert: %v", err)
		}
	}
	idx.WaitSync(10 * time.Second)
	st := idx.Stats()
	fmt.Printf("bulk-loaded %d entries; directory versions: trad=%d shortcut=%d\n\n",
		bulk, st.TradVersion, st.ShortcutVersion)

	// Fire waves: a burst of inserts followed by a lookup phase, printing
	// the synchronization state as it evolves.
	next := uint64(bulk + 1)
	for wave := 1; wave <= 4; wave++ {
		fmt.Printf("--- wave %d ---\n", wave)
		for i := 0; i < 20_000; i++ {
			if err := idx.Insert(next, next); err != nil {
				log.Fatalf("insert: %v", err)
			}
			next++
		}
		st = idx.Stats()
		fmt.Printf("after insert burst:  trad=%-4d shortcut=%-4d in_sync=%-5v (lookups -> %s)\n",
			st.TradVersion, st.ShortcutVersion, st.InSync, route(st))

		// Lookup phase: watch the mapper catch up mid-phase.
		deadline := time.Now().Add(200 * time.Millisecond)
		lookups := 0
		for time.Now().Before(deadline) {
			k := uint64(lookups%int(next-1)) + 1
			if _, ok := idx.Lookup(k); !ok {
				log.Fatalf("lost key %d", k)
			}
			lookups++
		}
		st = idx.Stats()
		fmt.Printf("after %6d lookups: trad=%-4d shortcut=%-4d in_sync=%-5v (lookups -> %s)\n\n",
			lookups, st.TradVersion, st.ShortcutVersion, st.InSync, route(st))
	}

	st = idx.Stats()
	fmt.Printf("totals: %d shortcut-routed lookups, %d traditional, %d replayed splits, %d rebuilds\n",
		st.ShortcutLookups, st.TraditionalLookups, st.UpdatesApplied, st.CreatesApplied)
}

func route(st vmshortcut.Stats) string {
	if st.UsingShortcut {
		return "shortcut directory"
	}
	return "traditional directory"
}
