package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vmshortcut"
)

// segments lists the WAL segment files in dir.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// TestSnapThenCompact drives the command over a directory a Shortcut-EH
// store wrote in small segments: snap must cover the last LSN, compact
// must then drop segments, and a reopen must recover every key.
func TestSnapThenCompact(t *testing.T) {
	dir := t.TempDir()
	const n = 2000
	s, err := vmshortcut.Open(vmshortcut.KindShortcutEH,
		vmshortcut.WithWAL(dir), vmshortcut.WithWALSegmentBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		if err := s.Insert(i*7919, i); err != nil {
			t.Fatal(err)
		}
	}
	d, _ := vmshortcut.AsDurable(s)
	last := d.WALStats().LastLSN
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"-wal-dir", dir, "-admin", "snap"}, &out); err != nil {
		t.Fatalf("snap: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", last))); err != nil {
		t.Fatalf("no snapshot at the last LSN %d: %v\n%s", last, err, out.String())
	}

	before := len(segments(t, dir))
	if err := run([]string{"-wal-dir", dir, "-admin", "compact"}, &out); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if after := len(segments(t, dir)); after >= before {
		t.Fatalf("compact left %d of %d segments\n%s", after, before, out.String())
	}

	s, err = vmshortcut.Open(vmshortcut.KindShortcutEH, vmshortcut.WithWAL(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != n {
		t.Fatalf("reopened store holds %d keys, want %d", s.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := s.Lookup(i * 7919); !ok || v != i {
			t.Fatalf("Lookup(%d) = (%d, %v), want (%d, true)", i*7919, v, ok, i)
		}
	}
}

// TestRejectsBadArgsBeforeOpen checks that an unknown operation, a
// missing -wal-dir and a mistyped directory each fail and leave nothing
// on disk: Open would otherwise create the directory and its first
// segment.
func TestRejectsBadArgsBeforeOpen(t *testing.T) {
	root := t.TempDir()
	missing := filepath.Join(root, "no-such-dir")
	for _, args := range [][]string{
		{"-wal-dir", root, "-admin", "snapshot"},
		{"-wal-dir", root},
		{"-admin", "snap"},
		{"-wal-dir", missing, "-admin", "snap"},
		{"-wal-dir", root, "-admin", "compact", "extra"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded:\n%s", args, out.String())
		}
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rejected runs left %d files in %s: %v", len(entries), root, entries)
	}
}
