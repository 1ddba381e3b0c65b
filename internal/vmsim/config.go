// Package vmsim is a deterministic software simulation of the virtual
// memory subsystem the paper's technique exploits: a 4-level radix page
// table walked by a hardware page-table walker, a two-level
// set-associative TLB, and a three-level set-associative data cache
// hierarchy in front of DRAM.
//
// The real-hardware experiments of the paper (Table 1, Figures 2, 4, 5)
// depend on TLB reach, page-walk locality, and TLB-shootdown IPIs —
// effects that are noisy or virtualised away inside VMs and containers.
// vmsim regenerates the *shape* of those results deterministically: every
// Access returns a cost in simulated nanoseconds derived from which level
// of the TLB/cache hierarchy served it, and page-table entries live at
// simulated physical addresses so page walks compete for cache space with
// the data they translate — the mechanism behind the fan-in crossover of
// Figure 4.
//
// The default parameters mirror the paper's Intel i7-12700KF test machine
// (§3): L1 TLB with 256 entries for 4 KB pages, L2 TLB with 3072 entries.
package vmsim

// Config describes the simulated machine. Zero fields take the defaults of
// the paper's evaluation platform.
type Config struct {
	// PageShift is log2 of the page size. Default 12 (4 KB pages).
	PageShift uint

	// TLB geometry. Defaults: 256-entry 4-way L1, 3072-entry 12-way L2
	// (i7-12700KF, 4 KB pages).
	TLB1Entries, TLB1Ways int
	TLB2Entries, TLB2Ways int

	// Data cache geometry. Defaults: 48 KB 12-way L1D, 1.25 MB 10-way L2,
	// 25 MB 10-way shared L3, 64 B lines.
	L1Size, L1Ways int
	L2Size, L2Ways int
	L3Size, L3Ways int
	LineSize       int

	// Latencies in simulated nanoseconds.
	LatL1      float64 // L1D hit. Default 1.
	LatL2      float64 // L2 hit. Default 4.
	LatL3      float64 // L3 hit. Default 14.
	LatDRAM    float64 // DRAM access. Default 80.
	LatTLB1    float64 // added when L1 TLB misses but L2 TLB hits. Default 7.
	LatFault   float64 // soft page fault (kernel entry, PTE insert). Default 1600.
	LatRemap   float64 // base cost of one mmap(MAP_FIXED) remap. Default 450.
	LatIPI     float64 // TLB-shootdown IPI cost per active remote core. Default 120.
	LatPopMmap float64 // per-page cost of MAP_POPULATE population. Default 74.

	// MLP is the memory-level-parallelism factor: out-of-order cores
	// overlap independent data misses across loop iterations, dividing
	// their effective cost, while page-table walks are chains of dependent
	// loads that cannot overlap. Data-access costs are divided by MLP;
	// walk references are charged in full. Default 4.
	MLP float64

	// NestedPaging models running inside a VM with hardware-assisted
	// nested paging (Intel EPT / AMD NPT): every guest page-table entry
	// read during a walk must itself be translated through the host's
	// page table, multiplying walk memory references. With 4-level guest
	// and host tables a hardware 2D walk is 24 references instead of 4:
	// 4 guest entry reads, a 4-read host walk before each, and a last host
	// walk for the data page's guest-physical address. The model charges
	// 20 (4 guest + 16 host, counted in Stats.EPTRefs): it uses the data
	// page's guest frame as its host frame, so that last host walk is not
	// simulated. Adding it did not change which way the Figure 4 gate's
	// crossover moves, and the gates in internal/experiments/sim_test.go
	// are exact against the 20-reference walk. It models a virtualized host, where TLB misses cost several times
	// more. Whether that lowers the shortcut's fan-in crossover depends on
	// the cache geometry: on the Figure 4 gate's machine in
	// internal/experiments it drops from fan-in 4 to 2, while with 4-way
	// caches the same sweep's crossover rises.
	NestedPaging bool
	// EPTLevels is the depth of the host page table for NestedPaging.
	// Default 4.
	EPTLevels int

	// PageWalkCache enables the paging-structure caches (PWC): partial
	// translations of the upper page-table levels are cached so most TLB
	// misses read only the final PTE instead of all four levels. Off by
	// default to keep the base model simple; enable to study how PWCs
	// soften the shortcut's TLB-thrashing penalty.
	PageWalkCache bool
}

func (c *Config) fill() {
	if c.PageShift == 0 {
		c.PageShift = 12
	}
	def := func(v *int, d int) {
		if *v <= 0 {
			*v = d
		}
	}
	def(&c.TLB1Entries, 256)
	def(&c.TLB1Ways, 4)
	def(&c.TLB2Entries, 3072)
	def(&c.TLB2Ways, 12)
	def(&c.L1Size, 48<<10)
	def(&c.L1Ways, 12)
	def(&c.L2Size, 1280<<10)
	def(&c.L2Ways, 10)
	def(&c.L3Size, 25<<20)
	def(&c.L3Ways, 10)
	def(&c.LineSize, 64)
	deff := func(v *float64, d float64) {
		if *v <= 0 {
			*v = d
		}
	}
	deff(&c.LatL1, 1)
	deff(&c.LatL2, 4)
	deff(&c.LatL3, 14)
	deff(&c.LatDRAM, 80)
	deff(&c.LatTLB1, 7)
	deff(&c.LatFault, 1600)
	deff(&c.LatRemap, 450)
	deff(&c.LatIPI, 120)
	deff(&c.LatPopMmap, 74)
	deff(&c.MLP, 4)
	def(&c.EPTLevels, 4)
}

// Stats counts simulator events.
type Stats struct {
	Accesses   uint64
	TLB1Hits   uint64
	TLB2Hits   uint64
	Walks      uint64 // full page-table walks (both TLBs missed)
	PageFaults uint64
	L1Hits     uint64
	L2Hits     uint64
	L3Hits     uint64
	DRAM       uint64
	Remaps     uint64
	Shootdowns uint64 // remote TLB invalidations delivered
	EPTRefs    uint64 // host page-table reads issued by nested walks
	PWCSkips   uint64 // page-table levels skipped thanks to the walk caches
}
