package pool

import (
	"errors"
	"fmt"
	"sync"

	"vmshortcut/internal/sys"
)

// Ref identifies a physical page by its byte offset into the main-memory
// file. Refs stay valid until the page is freed.
type Ref int64

// NoRef is the zero-value sentinel for "no page".
const NoRef Ref = -1

// Config tunes a Pool. The zero value selects sane defaults.
type Config struct {
	// InitialPages is the number of physical pages the file starts with.
	// Default 0 (grow on first Alloc).
	InitialPages int
	// GrowChunkPages is the minimum number of pages added per ftruncate
	// grow, amortising syscalls. Default 64.
	GrowChunkPages int
	// MaxPages caps the pool (and sizes the stable virtual window).
	// Default 1<<22 pages (16 GiB of virtual space, costing nothing
	// until backed).
	MaxPages int
	// Name labels the memfd for diagnostics.
	Name string
}

func (c *Config) fill() {
	if c.GrowChunkPages <= 0 {
		c.GrowChunkPages = 64
	}
	if c.MaxPages <= 0 {
		c.MaxPages = 1 << 22
	}
	if c.Name == "" {
		c.Name = "vmshortcut-pool"
	}
	if c.InitialPages < 0 {
		c.InitialPages = 0
	}
}

// Stats reports pool occupancy and syscall activity.
type Stats struct {
	FilePages  int // current size of the main-memory file in pages
	UsedPages  int // pages handed out and not yet freed
	FreePages  int // pages in the free queue
	Grows      int // ftruncate calls that grew the file
	Allocs     int // total Alloc'd pages over the pool lifetime
	Frees      int // total freed pages over the pool lifetime
	PeakPages  int // high-water mark of FilePages
	WindowBase uintptr
}

// Pool is a pool of physical pages backed by one main-memory file.
// It is safe for concurrent use.
type Pool struct {
	mu     sync.Mutex
	cfg    Config
	fd     int
	window uintptr // stable v_pool base, MaxPages*pagesize of reserved VA
	pages  int     // current file size in pages
	used   int
	free   []Ref  // FIFO queue of reusable offsets
	isFree []bool // isFree[i]: page i is queued in free
	stats  Stats
	closed bool
}

// ErrClosed is returned by operations on a closed pool.
var ErrClosed = errors.New("pool: closed")

// ErrExhausted is returned when MaxPages would be exceeded.
var ErrExhausted = errors.New("pool: max pages exhausted")

// New creates a pool according to cfg.
func New(cfg Config) (*Pool, error) {
	cfg.fill()
	fd, err := sys.MemfdCreate(cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("pool: creating main-memory file: %w", err)
	}
	win, err := sys.ReserveNone(cfg.MaxPages * sys.PageSize())
	if err != nil {
		sys.CloseFD(fd)
		return nil, fmt.Errorf("pool: reserving window: %w", err)
	}
	p := &Pool{cfg: cfg, fd: fd, window: win}
	p.stats.WindowBase = win
	if cfg.InitialPages > 0 {
		p.mu.Lock()
		err := p.growLocked(cfg.InitialPages)
		p.mu.Unlock()
		if err != nil {
			p.Close()
			return nil, err
		}
	}
	return p, nil
}

// Default returns a pool with default configuration.
func Default() (*Pool, error) { return New(Config{}) }

// FD exposes the main-memory file descriptor; shortcut construction maps
// slots of its virtual area onto offsets of this file.
func (p *Pool) FD() int { return p.fd }

// Window returns the base address of v_pool, the stable linear mapping of
// the whole main-memory file.
func (p *Pool) Window() uintptr { return p.window }

// PageSize returns the pool's page size in bytes.
func (p *Pool) PageSize() int { return sys.PageSize() }

// growLocked extends the file by at least n pages and rewires the window
// tail onto the new file region. New file pages are zero-filled by
// ftruncate; MAP_POPULATE pre-faults them so later accesses take no hard
// fault (paper §2.1).
func (p *Pool) growLocked(n int) error {
	if n < p.cfg.GrowChunkPages {
		n = p.cfg.GrowChunkPages
	}
	newPages := p.pages + n
	if newPages > p.cfg.MaxPages {
		newPages = p.cfg.MaxPages
		if newPages <= p.pages {
			return ErrExhausted
		}
		n = newPages - p.pages
	}
	ps := sys.PageSize()
	if err := sys.Ftruncate(p.fd, int64(newPages)*int64(ps)); err != nil {
		return err
	}
	// Map the fresh file tail into the stable window and pre-fault it.
	addr := p.window + uintptr(p.pages*ps)
	if err := sys.MapShared(addr, n*ps, p.fd, int64(p.pages)*int64(ps), true); err != nil {
		// Roll the file size back so state stays consistent.
		_ = sys.Ftruncate(p.fd, int64(p.pages)*int64(ps))
		return err
	}
	for i := p.pages; i < newPages; i++ {
		p.free = append(p.free, Ref(int64(i)*int64(ps)))
		p.isFree = append(p.isFree, true)
	}
	p.pages = newPages
	p.stats.Grows++
	if p.pages > p.stats.PeakPages {
		p.stats.PeakPages = p.pages
	}
	return nil
}

// Alloc hands out one zeroed physical page.
func (p *Pool) Alloc() (Ref, error) {
	refs, err := p.AllocN(1)
	if err != nil {
		return NoRef, err
	}
	return refs[0], nil
}

// AllocN hands out n zeroed physical pages. The pages are not guaranteed
// to be contiguous in the file.
func (p *Pool) AllocN(n int) ([]Ref, error) {
	if n <= 0 {
		return nil, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	for len(p.free) < n {
		if err := p.growLocked(n - len(p.free)); err != nil {
			return nil, err
		}
	}
	out := make([]Ref, n)
	copy(out, p.free[:n])
	p.free = p.free[n:]
	p.used += n
	p.stats.Allocs += n
	// Zero recycled pages so Alloc always returns clean memory.
	for _, r := range out {
		p.isFree[pageIndex(r)] = false
		clearPage(p.pageLocked(r))
	}
	return out, nil
}

// AllocContiguous hands out n physically contiguous pages (contiguous in
// the main-memory file), growing the file tail if necessary. Contiguity
// lets a shortcut cover them with a single coalesced mmap call.
func (p *Pool) AllocContiguous(n int) (Ref, error) {
	if n <= 0 {
		return NoRef, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return NoRef, ErrClosed
	}
	run, ok := p.findRunLocked(n)
	if !ok {
		// Force the run to come from a fresh tail extension.
		tail := p.pages
		if err := p.growLocked(n); err != nil {
			return NoRef, err
		}
		run = Ref(int64(tail) * int64(sys.PageSize()))
		p.takeRunLocked(run, n)
	} else {
		p.takeRunLocked(run, n)
	}
	p.used += n
	p.stats.Allocs += n
	ps := sys.PageSize()
	for i := 0; i < n; i++ {
		clearPage(p.pageLocked(run + Ref(i*ps)))
	}
	return run, nil
}

// findRunLocked searches the free queue for n consecutive page offsets.
func (p *Pool) findRunLocked(n int) (Ref, bool) {
	if len(p.free) < n {
		return NoRef, false
	}
	for _, r := range p.free {
		first := pageIndex(r)
		if first+n > p.pages {
			continue
		}
		ok := true
		for i := first + 1; i < first+n; i++ {
			if !p.isFree[i] {
				ok = false
				break
			}
		}
		if ok {
			return r, true
		}
	}
	return NoRef, false
}

// takeRunLocked removes the n-page run starting at run from the free queue.
func (p *Pool) takeRunLocked(run Ref, n int) {
	first := pageIndex(run)
	for i := first; i < first+n; i++ {
		p.isFree[i] = false
	}
	kept := p.free[:0]
	for _, r := range p.free {
		if i := pageIndex(r); i >= first && i < first+n {
			continue
		}
		kept = append(kept, r)
	}
	p.free = kept
}

// Free queues page r for reuse. The file never shrinks: a freed page stays
// mapped and readable, through the window and through any shortcut slot
// still mapped onto it, until Close.
func (p *Pool) Free(r Ref) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	ps := int64(sys.PageSize())
	if r < 0 || int64(r)%ps != 0 || int64(r) >= int64(p.pages)*ps {
		return fmt.Errorf("pool: Free(%d): invalid page ref", r)
	}
	p.used--
	p.stats.Frees++
	p.free = append(p.free, r)
	p.isFree[pageIndex(r)] = true
	return nil
}

// FreeN frees a batch of pages.
func (p *Pool) FreeN(refs []Ref) error {
	for _, r := range refs {
		if err := p.Free(r); err != nil {
			return err
		}
	}
	return nil
}

// Page returns the byte view of page r through the stable window.
func (p *Pool) Page(r Ref) []byte {
	return sys.Bytes(p.Addr(r), sys.PageSize())
}

// pageLocked is Page without re-entering the lock (callers hold p.mu).
func (p *Pool) pageLocked(r Ref) []byte {
	return sys.Bytes(p.window+uintptr(int64(r)), sys.PageSize())
}

// Addr returns the stable window address of page r.
func (p *Pool) Addr(r Ref) uintptr {
	return p.window + uintptr(int64(r))
}

// RefOf inverts Addr: given a window address of a pooled page, it returns
// the page's file offset. This is the linear v_pool→p_pool mapping the
// shortcut construction exploits (paper §2.1).
func (p *Pool) RefOf(addr uintptr) (Ref, error) {
	ps := uintptr(sys.PageSize())
	if addr < p.window {
		return NoRef, fmt.Errorf("pool: address %#x below window", addr)
	}
	off := addr - p.window
	p.mu.Lock()
	pages := p.pages
	p.mu.Unlock()
	if off >= uintptr(pages)*ps {
		return NoRef, fmt.Errorf("pool: address %#x beyond window", addr)
	}
	return Ref(off - off%ps), nil
}

// Stats returns a snapshot of pool statistics.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.FilePages = p.pages
	s.UsedPages = p.used
	s.FreePages = len(p.free)
	return s
}

// Close releases the window and the main-memory file. Pages handed out
// become invalid.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	var firstErr error
	if err := sys.Unmap(p.window, p.cfg.MaxPages*sys.PageSize()); err != nil {
		firstErr = err
	}
	if err := sys.CloseFD(p.fd); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// pageIndex converts a page ref into the page's number in the file.
func pageIndex(r Ref) int { return int(int64(r) / int64(sys.PageSize())) }

func clearPage(b []byte) {
	for i := range b {
		b[i] = 0
	}
}
