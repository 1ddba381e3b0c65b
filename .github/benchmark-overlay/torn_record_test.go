package main

// This file is not part of the repository's root module (go ignores dot
// directories): CI overlays it into benchmark/ — see overlay.json here and
// the "Test the benchmark module" step — because benchmark/ is frozen while
// a change is measured against it and its own
// TestVerifierDetectsLostAckedWrite cuts the crash image's last segment
// FILE by one byte. Since segments are preallocated that byte is a zero
// past the records, so nothing is lost and there is nothing to detect. The
// tear has to be at the segment's logical end. Move this tamper into
// benchmark/verify_test.go and delete this directory with the next change
// that may touch benchmark/.

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// TestVerifierDetectsTornLastRecord: a crash image whose last record is
// torn recovers without the last acknowledged batch, and the run must
// report failed operations and exit non-zero.
func TestVerifierDetectsTornLastRecord(t *testing.T) {
	base := config{params: small}
	base.tamperImage = func(dir string) error {
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no WAL segments in the crash image: %v", err)
		}
		sort.Strings(segs)
		last := segs[len(segs)-1]
		data, err := os.ReadFile(last)
		if err != nil {
			return err
		}
		// No record is all zeros, so the last non-zero byte lies in the
		// last record; cutting there tears it and nothing before it.
		end := len(bytes.TrimRight(data, "\x00"))
		if end == 0 {
			t.Fatalf("%s holds no records", filepath.Base(last))
		}
		return os.Truncate(last, int64(end-1))
	}
	code, r := runFaulty(t, "serve_durable", base)
	if code == 0 || r.Correct || r.Failed == 0 {
		t.Errorf("a lost acknowledged write went unnoticed: exit %d, correct %v, failed %d of %d", code, r.Correct, r.Failed, r.Attempted)
	}
}
