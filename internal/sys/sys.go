// Package sys provides the thin, page-granular virtual-memory syscall layer
// that memory rewiring is built on: main-memory files (memfd_create),
// on-demand resizing (ftruncate), virtual-area reservation (anonymous mmap),
// and page-table manipulation (mmap with MAP_SHARED|MAP_FIXED).
//
// All addresses handed out by this package live outside the Go heap. The
// garbage collector never scans or moves them, which is what makes page
// games safe in Go: the pages may only ever hold plain bytes, never Go
// pointers.
//
// The package also exposes a fault-injection hook so higher layers can test
// their error paths without a broken kernel, and wraps the two file
// syscalls of the write-ahead log's commit path (Fallocate, Fdatasync).
package sys

import (
	"fmt"
	"os"
	"sync"
	"unsafe"
)

// Op identifies a syscall wrapper for fault injection.
type Op string

// Operations that can be intercepted by the fault hook.
const (
	OpMemfdCreate Op = "memfd_create"
	OpFtruncate   Op = "ftruncate"
	OpReserve     Op = "mmap_reserve"
	OpMapShared   Op = "mmap_shared"
	OpUnmap       Op = "munmap"
	OpPopulate    Op = "populate"
)

var (
	faultMu   sync.RWMutex
	faultHook func(Op) error
)

// SetFaultHook installs fn as a pre-syscall interceptor: if fn returns a
// non-nil error for an Op, the wrapper fails with that error instead of
// entering the kernel. Passing nil removes the hook. Intended for tests.
func SetFaultHook(fn func(Op) error) {
	faultMu.Lock()
	faultHook = fn
	faultMu.Unlock()
}

func injected(op Op) error {
	faultMu.RLock()
	fn := faultHook
	faultMu.RUnlock()
	if fn == nil {
		return nil
	}
	return fn(op)
}

var pageSize = os.Getpagesize()

// PageSize returns the size of a small memory page on this host,
// typically 4096 bytes.
func PageSize() int { return pageSize }

// PageCeil rounds n up to the next multiple of the page size.
func PageCeil(n int) int {
	ps := PageSize()
	return (n + ps - 1) / ps * ps
}

// AddrToPointer converts a raw mapped address (as returned by the mmap
// wrappers in this package) to an unsafe.Pointer. The addresses handled
// here never point into the Go heap — they come straight from the kernel —
// so the usual vet concern about uintptr round-trips (a GC moving the
// object between the conversion steps) cannot apply. The double conversion
// keeps `go vet` satisfied while documenting exactly this one crossing
// point.
func AddrToPointer(addr uintptr) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&addr))
}

// Bytes reinterprets the n bytes starting at addr as a byte slice. The
// memory must stay mapped for as long as the slice is in use.
func Bytes(addr uintptr, n int) []byte {
	return unsafe.Slice((*byte)(AddrToPointer(addr)), n)
}

// Words reinterprets the memory starting at addr as a slice of n uint64
// words. addr must be 8-byte aligned (page-aligned addresses always are).
func Words(addr uintptr, n int) []uint64 {
	return unsafe.Slice((*uint64)(AddrToPointer(addr)), n)
}

// errOp wraps err with the failing operation for diagnosis.
func errOp(op Op, err error) error {
	return fmt.Errorf("sys: %s: %w", op, err)
}
