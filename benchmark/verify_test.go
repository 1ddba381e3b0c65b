package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The verifier's self-tests: a run whose store holds one wrong value, and a
// run whose crash image lost its last record, must each report failed
// operations and exit non-zero. Otherwise a fast wrong answer would be
// reported as the fastest run.

func runFaulty(t *testing.T, workload string, base config) (code int, r reported) {
	t.Helper()
	if _, err := preflight(t.TempDir()); err != nil {
		t.Skip("host refused:", err)
	}
	smallConfig(t) // silences the log
	var out bytes.Buffer
	code = run([]string{"-workload", workload, "-seconds", "1", "-out", t.TempDir()}, &out, base)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("no result line: %v\n%s", err, out.String())
	}
	return code, r
}

func TestVerifierDetectsWrongValue(t *testing.T) {
	for _, workload := range []string{"index_lookup", "serve_read"} {
		t.Run(workload, func(t *testing.T) {
			base := config{params: small}
			base.afterSetup = func(e env) {
				// Key index 0 is the hottest key of the zipfian stream
				// and one of the uniform stream's 16384.
				var err error
				switch e := e.(type) {
				case *lookupEnv:
					err = e.s.Insert(e.cfg.key(0), 12345)
				case *servedEnv:
					err = e.store.Insert(e.cfg.key(0), 12345)
				}
				if err != nil {
					t.Error(err)
				}
			}
			code, r := runFaulty(t, workload, base)
			if code == 0 || r.Correct || r.Failed == 0 {
				t.Errorf("a flipped value went unnoticed: exit %d, correct %v, failed %d of %d", code, r.Correct, r.Failed, r.Attempted)
			}
		})
	}
}

func TestVerifierDetectsLostAckedWrite(t *testing.T) {
	base := config{params: small}
	base.tamperImage = func(dir string) error {
		// Tear the last record: recovery truncates a torn tail, so the
		// image loses the last acknowledged batch.
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no WAL segments in the crash image: %v", err)
		}
		sort.Strings(segs)
		last := segs[len(segs)-1]
		fi, err := os.Stat(last)
		if err != nil {
			return err
		}
		return os.Truncate(last, fi.Size()-1)
	}
	code, r := runFaulty(t, "serve_durable", base)
	if code == 0 || r.Correct || r.Failed == 0 {
		t.Errorf("a lost acknowledged write went unnoticed: exit %d, correct %v, failed %d of %d", code, r.Correct, r.Failed, r.Attempted)
	}
}

// TestCleanRunExitsZero is the control: the same runs without a fault pass.
func TestCleanRunExitsZero(t *testing.T) {
	code, r := runFaulty(t, "serve_durable", config{params: small})
	if code != 0 || !r.Correct || r.Failed != 0 {
		t.Errorf("clean run: exit %d, correct %v, failed %d of %d", code, r.Correct, r.Failed, r.Attempted)
	}
}
