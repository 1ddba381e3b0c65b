//go:build linux

package sys

import (
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// mapPopulate is MAP_POPULATE: eagerly insert page-table entries during the
// mmap call instead of lazily on first access (paper §2.1, "Details").
const mapPopulate = 0x8000

// MemfdCreate creates a main-memory file: a file that behaves like a normal
// file but is backed by volatile physical memory. The returned descriptor is
// the application's handle to physical memory (paper §2). If the kernel does
// not support memfd_create, an unlinked tmpfs file is used instead.
func MemfdCreate(name string) (int, error) {
	if err := injected(OpMemfdCreate); err != nil {
		return -1, errOp(OpMemfdCreate, err)
	}
	p, err := syscall.BytePtrFromString(name)
	if err != nil {
		return -1, errOp(OpMemfdCreate, err)
	}
	fd, _, errno := syscall.Syscall(sysMemfdCreate, uintptr(unsafe.Pointer(p)), 0, 0)
	if errno == syscall.ENOSYS {
		return tmpfsFile(name)
	}
	if errno != 0 {
		return -1, errOp(OpMemfdCreate, errno)
	}
	return int(fd), nil
}

// Ftruncate resizes the main-memory file behind fd to size bytes, growing or
// shrinking the pool of physical pages at page granularity.
func Ftruncate(fd int, size int64) error {
	if err := injected(OpFtruncate); err != nil {
		return errOp(OpFtruncate, err)
	}
	if err := syscall.Ftruncate(fd, size); err != nil {
		return errOp(OpFtruncate, err)
	}
	return nil
}

// CloseFD closes a file descriptor obtained from MemfdCreate.
func CloseFD(fd int) error { return syscall.Close(fd) }

// ReserveAnon reserves a fresh virtual memory area of length bytes backed by
// anonymous memory (MAP_PRIVATE|MAP_ANON). This is a mere reservation: no
// physical memory is committed until a page is touched or rewired.
func ReserveAnon(length int) (uintptr, error) {
	if err := injected(OpReserve); err != nil {
		return 0, errOp(OpReserve, err)
	}
	addr, _, errno := syscall.Syscall6(syscall.SYS_MMAP, 0, uintptr(length),
		syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON, ^uintptr(0), 0)
	if errno != 0 {
		return 0, errOp(OpReserve, errno)
	}
	return addr, nil
}

// ReserveNone reserves virtual address space with no access permissions.
// Useful for large stable windows whose interior is rewired piecemeal.
func ReserveNone(length int) (uintptr, error) {
	if err := injected(OpReserve); err != nil {
		return 0, errOp(OpReserve, err)
	}
	addr, _, errno := syscall.Syscall6(syscall.SYS_MMAP, 0, uintptr(length),
		syscall.PROT_NONE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON, ^uintptr(0), 0)
	if errno != 0 {
		return 0, errOp(OpReserve, errno)
	}
	return addr, nil
}

// MapShared rewires the virtual pages [addr, addr+length) onto the physical
// pages of the main-memory file fd starting at offset off. The existing
// mapping at addr is replaced atomically (MAP_SHARED|MAP_FIXED); the old
// page-table entries are dropped. If populate is true the new page-table
// entries are inserted eagerly (MAP_POPULATE), otherwise the first access
// takes a soft page fault.
func MapShared(addr uintptr, length int, fd int, off int64, populate bool) error {
	if err := injected(OpMapShared); err != nil {
		return errOp(OpMapShared, err)
	}
	flags := uintptr(syscall.MAP_SHARED | syscall.MAP_FIXED)
	if populate {
		flags |= mapPopulate
	}
	_, _, errno := syscall.Syscall6(syscall.SYS_MMAP, addr, uintptr(length),
		syscall.PROT_READ|syscall.PROT_WRITE, flags, uintptr(fd), uintptr(off))
	if errno != 0 {
		return errOp(OpMapShared, errno)
	}
	return nil
}

// MapSharedNew maps length bytes of fd at offset off at a kernel-chosen
// address and returns it. Used for linear pool windows.
func MapSharedNew(length int, fd int, off int64, populate bool) (uintptr, error) {
	if err := injected(OpMapShared); err != nil {
		return 0, errOp(OpMapShared, err)
	}
	flags := uintptr(syscall.MAP_SHARED)
	if populate {
		flags |= mapPopulate
	}
	addr, _, errno := syscall.Syscall6(syscall.SYS_MMAP, 0, uintptr(length),
		syscall.PROT_READ|syscall.PROT_WRITE, flags, uintptr(fd), uintptr(off))
	if errno != 0 {
		return 0, errOp(OpMapShared, errno)
	}
	return addr, nil
}

// MapZeroFixed replaces the mapping at [addr, addr+length) with one
// read-only anonymous mapping, detaching the range from any main-memory
// file: every page reads as zeros and holds no memory, and the range
// cannot merge with a writable neighbour. Used to retire a range late
// readers may still load from.
func MapZeroFixed(addr uintptr, length int) error {
	if err := injected(OpMapShared); err != nil {
		return errOp(OpMapShared, err)
	}
	_, _, errno := syscall.Syscall6(syscall.SYS_MMAP, addr, uintptr(length), syscall.PROT_READ,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_FIXED, ^uintptr(0), 0)
	if errno != 0 {
		return errOp(OpMapShared, errno)
	}
	return nil
}

// Unmap removes the mapping at [addr, addr+length).
func Unmap(addr uintptr, length int) error {
	if err := injected(OpUnmap); err != nil {
		return errOp(OpUnmap, err)
	}
	_, _, errno := syscall.Syscall(syscall.SYS_MUNMAP, addr, uintptr(length), 0)
	if errno != 0 {
		return errOp(OpUnmap, errno)
	}
	return nil
}

// Populate walks [addr, addr+length) reading one byte per page, forcing the
// kernel to install a page-table entry for every page. This is the explicit
// "populate" phase of Table 1 when MAP_POPULATE was not passed at map time.
func Populate(addr uintptr, length int) error {
	if err := injected(OpPopulate); err != nil {
		return errOp(OpPopulate, err)
	}
	ps := uintptr(PageSize())
	var sink byte
	for p := addr; p < addr+uintptr(length); p += ps {
		sink += *(*byte)(AddrToPointer(p))
	}
	_ = sink
	return nil
}

// tmpfsFile is the memfd_create fallback: an unlinked file on tmpfs, which
// is also backed by physical memory.
func tmpfsFile(name string) (int, error) {
	dir := "/dev/shm"
	if st, err := statDir(dir); err != nil || !st {
		dir = "/tmp"
	}
	path := dir + "/." + name + "-fallback"
	fd, err := syscall.Open(path, syscall.O_RDWR|syscall.O_CREAT|syscall.O_EXCL, 0o600)
	if err != nil {
		return -1, errOp(OpMemfdCreate, err)
	}
	// Unlink immediately: the pool owns the only handle.
	if err := syscall.Unlink(path); err != nil {
		syscall.Close(fd)
		return -1, errOp(OpMemfdCreate, err)
	}
	return fd, nil
}

func statDir(path string) (bool, error) {
	var st syscall.Stat_t
	if err := syscall.Stat(path, &st); err != nil {
		return false, err
	}
	return st.Mode&syscall.S_IFDIR != 0, nil
}

// File is an open file with its syscall.RawConn taken once, so that
// Fallocate and Fdatasync reach its descriptor without allocating: every
// (*os.File).SyscallConn call allocates a new RawConn.
type File struct {
	*os.File
	rc syscall.RawConn
}

// NewFile wraps the open file f for Fallocate and Fdatasync.
func NewFile(f *os.File) File {
	rc, _ := f.SyscallConn() // fails only for a nil *os.File
	return File{File: f, rc: rc}
}

// Fallocate reserves real blocks for the first size bytes of f and extends
// the file to size (fallocate mode 0); the new bytes read as zeros. Writes
// inside the reservation neither allocate nor change the file size. They
// are not metadata-free on every filesystem: ext4 reserves unwritten
// extents, the first write into each block converts its extent, and the
// next Fdatasync journals that conversion along with the data.
func Fallocate(f File, size int64) error {
	return fileControl(f, "fallocate", func(fd int) error { return syscall.Fallocate(fd, 0, 0, size) })
}

// Fdatasync flushes f's data, and only the metadata needed to read it
// back, to stable storage.
func Fdatasync(f File) error {
	return fileControl(f, "fdatasync", syscall.Fdatasync)
}

// fileControl runs call on f's descriptor, retrying EINTR. The descriptor
// stays referenced for the duration, so a concurrent Close cannot hand
// its number to another file under the syscall; on a file closed before
// the call the error is os.ErrClosed.
func fileControl(f File, op string, call func(fd int) error) error {
	fc := fileCalls.Get().(*fileCall)
	fc.call, fc.err = call, os.ErrClosed
	f.rc.Control(fc.run)
	cerr := fc.err
	fc.call, fc.err = nil, nil
	fileCalls.Put(fc)
	if cerr != nil {
		return &os.PathError{Op: op, Path: f.Name(), Err: cerr}
	}
	return nil
}

// fileCall carries one fileControl call and its result through
// RawConn.Control. Control takes its func through an interface, so a
// closure built per call would move to the heap with the error it
// writes; run is bound once, when the pool makes the fileCall.
type fileCall struct {
	call func(fd int) error
	err  error
	run  func(fd uintptr)
}

var fileCalls = sync.Pool{New: func() any {
	fc := new(fileCall)
	fc.run = func(fd uintptr) {
		for fc.err = fc.call(int(fd)); fc.err == syscall.EINTR; fc.err = fc.call(int(fd)) {
		}
	}
	return fc
}}
