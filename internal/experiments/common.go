// Package experiments implements one driver per table and figure of the
// paper's evaluation, plus the ablations, for cmd/shortcutbench. Every
// driver returns its results as harness tables or series, so the caller
// decides how to render them.
//
// Hardware-bound experiments (Table 1, Figures 2, 4, 5) come in two
// variants: a real-backend run (actual mmap/memfd rewiring, wall-clock
// time) and a vmsim run (deterministic simulated nanoseconds). The gates
// in sim_test.go pin the simulated shapes exactly; the real runs move
// with the host.
package experiments

import (
	"fmt"
	"unsafe"

	"vmshortcut/internal/pool"
	"vmshortcut/internal/sys"
)

// readWord reads one uint64 at addr — the "access a leaf" primitive of the
// microbenchmarks. It compiles to a single load.
func readWord(addr uintptr) uint64 {
	return *(*uint64)(sys.AddrToPointer(addr))
}

// sink prevents the compiler from eliding measured loads.
var sink uint64

// leafSet allocates n contiguous leaf pages from a fresh pool sized for
// the experiment and returns the pool and the page refs.
func leafSet(nPages int) (*pool.Pool, []pool.Ref, error) {
	p, err := pool.New(pool.Config{
		GrowChunkPages: 1 << 12,
		MaxPages:       nPages + (1 << 13),
	})
	if err != nil {
		return nil, nil, err
	}
	run, err := p.AllocContiguous(nPages)
	if err != nil {
		p.Close()
		return nil, nil, fmt.Errorf("allocating %d leaves: %w", nPages, err)
	}
	ps := sys.PageSize()
	refs := make([]pool.Ref, nPages)
	for i := range refs {
		refs[i] = run + pool.Ref(i*ps)
	}
	return p, refs, nil
}

// stampLeaves writes a recognizable word into each leaf page so reads can
// be verified cheaply.
func stampLeaves(p *pool.Pool, refs []pool.Ref) {
	for i, r := range refs {
		w := sys.Words(p.Addr(r), 8)
		w[0] = uint64(i) + 1
	}
}

// wordsPerPage is the number of uint64 words in one page.
func wordsPerPage() int { return sys.PageSize() / int(unsafe.Sizeof(uint64(0))) }
