package sys

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestPageSize(t *testing.T) {
	ps := PageSize()
	if ps <= 0 || ps&(ps-1) != 0 {
		t.Fatalf("page size %d is not a positive power of two", ps)
	}
}

func TestPageCeil(t *testing.T) {
	ps := PageSize()
	tests := []struct {
		in, want int
	}{
		{0, 0},
		{1, ps},
		{ps, ps},
		{ps + 1, 2 * ps},
		{3*ps - 1, 3 * ps},
	}
	for _, tc := range tests {
		if got := PageCeil(tc.in); got != tc.want {
			t.Errorf("PageCeil(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestMemfdCreateAndResize(t *testing.T) {
	fd, err := MemfdCreate("sys-test")
	if err != nil {
		t.Fatalf("MemfdCreate: %v", err)
	}
	defer CloseFD(fd)
	if err := Ftruncate(fd, int64(4*PageSize())); err != nil {
		t.Fatalf("Ftruncate grow: %v", err)
	}
	if err := Ftruncate(fd, int64(2*PageSize())); err != nil {
		t.Fatalf("Ftruncate shrink: %v", err)
	}
}

func TestReserveAndUnmap(t *testing.T) {
	n := 8 * PageSize()
	addr, err := ReserveAnon(n)
	if err != nil {
		t.Fatalf("ReserveAnon: %v", err)
	}
	b := Bytes(addr, n)
	b[0] = 1
	b[n-1] = 2
	if b[0] != 1 || b[n-1] != 2 {
		t.Fatal("anonymous reservation not writable")
	}
	if err := Unmap(addr, n); err != nil {
		t.Fatalf("Unmap: %v", err)
	}
}

func TestRewireAliasing(t *testing.T) {
	ps := PageSize()
	fd, err := MemfdCreate("sys-alias")
	if err != nil {
		t.Fatalf("MemfdCreate: %v", err)
	}
	defer CloseFD(fd)
	if err := Ftruncate(fd, int64(4*ps)); err != nil {
		t.Fatalf("Ftruncate: %v", err)
	}
	win, err := MapSharedNew(4*ps, fd, 0, true)
	if err != nil {
		t.Fatalf("MapSharedNew: %v", err)
	}
	defer Unmap(win, 4*ps)

	sc, err := ReserveAnon(2 * ps)
	if err != nil {
		t.Fatalf("ReserveAnon: %v", err)
	}
	defer Unmap(sc, 2*ps)

	// Rewire both shortcut slots onto physical page 3 of the pool.
	if err := MapShared(sc, ps, fd, int64(3*ps), true); err != nil {
		t.Fatalf("MapShared slot 0: %v", err)
	}
	if err := MapShared(sc+uintptr(ps), ps, fd, int64(3*ps), false); err != nil {
		t.Fatalf("MapShared slot 1: %v", err)
	}

	poolWords := Words(win+uintptr(3*ps), ps/8)
	slot0 := Words(sc, ps/8)
	slot1 := Words(sc+uintptr(ps), ps/8)

	poolWords[7] = 0xABCD
	if slot0[7] != 0xABCD || slot1[7] != 0xABCD {
		t.Fatalf("aliases disagree: slot0=%x slot1=%x", slot0[7], slot1[7])
	}
	slot1[9] = 77
	if poolWords[9] != 77 || slot0[9] != 77 {
		t.Fatalf("write through alias not visible: pool=%d slot0=%d", poolWords[9], slot0[9])
	}
}

// TestMapZeroFixedDetaches blanks a page mapped from a file: the blank
// reads zeros, and the file page keeps its value.
func TestMapZeroFixedDetaches(t *testing.T) {
	ps := PageSize()
	fd, err := MemfdCreate("sys-detach")
	if err != nil {
		t.Fatalf("MemfdCreate: %v", err)
	}
	defer CloseFD(fd)
	if err := Ftruncate(fd, int64(ps)); err != nil {
		t.Fatalf("Ftruncate: %v", err)
	}
	area, err := ReserveAnon(ps)
	if err != nil {
		t.Fatalf("ReserveAnon: %v", err)
	}
	defer Unmap(area, ps)
	if err := MapShared(area, ps, fd, 0, true); err != nil {
		t.Fatalf("MapShared: %v", err)
	}
	Bytes(area, ps)[0] = 9
	if err := MapZeroFixed(area, ps); err != nil {
		t.Fatalf("MapZeroFixed: %v", err)
	}
	if got := Bytes(area, ps)[0]; got != 0 {
		t.Fatalf("detached page should read zero, got %d", got)
	}
	// The file page must still hold the value.
	win, err := MapSharedNew(ps, fd, 0, true)
	if err != nil {
		t.Fatalf("MapSharedNew: %v", err)
	}
	defer Unmap(win, ps)
	if got := Bytes(win, ps)[0]; got != 9 {
		t.Fatalf("file page lost its value, got %d", got)
	}
}

func TestPopulate(t *testing.T) {
	ps := PageSize()
	addr, err := ReserveAnon(16 * ps)
	if err != nil {
		t.Fatalf("ReserveAnon: %v", err)
	}
	defer Unmap(addr, 16*ps)
	if err := Populate(addr, 16*ps); err != nil {
		t.Fatalf("Populate: %v", err)
	}
}

func TestFaultInjection(t *testing.T) {
	boom := errors.New("boom")
	SetFaultHook(func(op Op) error {
		if op == OpFtruncate {
			return boom
		}
		return nil
	})
	defer SetFaultHook(nil)

	fd, err := MemfdCreate("sys-fault")
	if err != nil {
		t.Fatalf("MemfdCreate should pass through: %v", err)
	}
	defer CloseFD(fd)
	if err := Ftruncate(fd, int64(PageSize())); !errors.Is(err, boom) {
		t.Fatalf("Ftruncate error = %v, want wrapped boom", err)
	}
}

func TestWordsAlignment(t *testing.T) {
	ps := PageSize()
	addr, err := ReserveAnon(ps)
	if err != nil {
		t.Fatalf("ReserveAnon: %v", err)
	}
	defer Unmap(addr, ps)
	w := Words(addr, ps/8)
	if len(w) != ps/8 {
		t.Fatalf("len = %d, want %d", len(w), ps/8)
	}
	w[0], w[len(w)-1] = 1, 2
	b := Bytes(addr, ps)
	if b[0] != 1 || b[ps-8] != 2 {
		t.Fatal("word view does not alias byte view")
	}
}

func TestFallocateAndFdatasync(t *testing.T) {
	of, err := os.OpenFile(filepath.Join(t.TempDir(), "seg"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFile(of)
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := Fallocate(f, 1<<16); err != nil {
		t.Skipf("this filesystem does not preallocate: %v", err)
	}
	if fi, err := f.Stat(); err != nil || fi.Size() != 1<<16 {
		t.Fatalf("size after Fallocate = %v, %v, want the reservation", fi.Size(), err)
	}
	got := make([]byte, 8)
	if _, err := f.ReadAt(got, 0); err != nil || string(got) != "abc\x00\x00\x00\x00\x00" {
		t.Fatalf("read back %q, %v: the reservation must keep the data and read as zeros past it", got, err)
	}
	if err := Fdatasync(f); err != nil {
		t.Fatalf("Fdatasync: %v", err)
	}
	f.Close()
	if err := Fdatasync(f); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Fdatasync on a closed file = %v, want os.ErrClosed", err)
	}
}
