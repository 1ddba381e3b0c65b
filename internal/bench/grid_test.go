package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func writeGrid(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "experiments.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGridExpansion(t *testing.T) {
	path := writeGrid(t, `{
		"repeats": 2,
		"defaults": {"load": 1000, "duration": "100ms", "mix": ["A"], "shards": [2]},
		"experiments": [
			{"name": "batch", "batch": ["none", "mixed"], "fsync": ["off"]},
			{"name": "scale", "mix": ["C"], "shards": [1, 2], "gomaxprocs": [1, 2]}
		]
	}`)
	g, err := LoadGrid(path)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 + 4; len(cells) != want {
		t.Fatalf("expanded to %d cells, want %d", len(cells), want)
	}
	for _, c := range cells {
		if c.Repeats != 2 {
			t.Errorf("cell %s: repeats %d, want 2 (grid-level)", c.Key, c.Repeats)
		}
		if c.Load != 1000 || time.Duration(c.Duration) != 100*time.Millisecond {
			t.Errorf("cell %s: defaults not inherited: load=%d duration=%v", c.Key, c.Load, c.Duration)
		}
	}
	// The scale experiment overrides mix but not load; the batch
	// experiment keeps the default mix A and layers its own axes.
	if cells[0].Mix != "A" || cells[0].Batch != "none" || cells[0].Fsync != "off" {
		t.Errorf("first batch cell wrong: %+v", cells[0])
	}
	if cells[2].Mix != "C" || cells[2].Shards != 1 || cells[2].Procs != 1 {
		t.Errorf("first scale cell wrong: %+v", cells[2])
	}
	// Keys must be unique and filename-safe after FileStem.
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Key] {
			t.Errorf("duplicate key %s", c.Key)
		}
		seen[c.Key] = true
		if strings.ContainsAny(c.FileStem(), "/ ") {
			t.Errorf("FileStem %q not filename-safe", c.FileStem())
		}
	}
}

func TestGridRejectsBadCells(t *testing.T) {
	tests := []struct {
		name, body, want string
	}{
		{"unknown mix", `{"experiments": [{"name": "x", "mix": ["Z"]}]}`, "unknown mix"},
		{"unknown fsync", `{"experiments": [{"name": "x", "fsync": ["sometimes"]}]}`, "fsync"},
		{"unknown kind", `{"experiments": [{"name": "x", "kind": "btree"}]}`, "kind"},
		{"bad batch", `{"experiments": [{"name": "x", "batch": ["banana"]}]}`, "batch"},
		{"zero shards", `{"experiments": [{"name": "x", "shards": [-1]}]}`, "shards"},
		{"repl without wal", `{"experiments": [{"name": "x", "replication": [true]}]}`, "replication requires a WAL"},
		{"nameless", `{"experiments": [{"mix": ["A"]}]}`, "name"},
		{"no experiments", `{"experiments": []}`, "no experiments"},
		{"duplicate cells", `{"experiments": [{"name": "x", "mix": ["A"]}, {"name": "x", "mix": ["A"]}]}`, "duplicate"},
		{"bad duration", `{"experiments": [{"name": "x", "duration": "fast"}]}`, "duration"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			g, err := LoadGrid(writeGrid(t, tc.body))
			if err == nil {
				_, err = g.Cells()
			}
			if err == nil {
				t.Fatalf("grid %s accepted, want an error mentioning %q", tc.body, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestGridKeysStable pins the cell-key format: the regression gate joins
// baselines across PRs on these strings, so changing the format breaks
// every committed baseline.
func TestGridKeysStable(t *testing.T) {
	path := writeGrid(t, `{
		"experiments": [{"name": "e", "mix": ["A"], "batch": ["mixed"], "fsync": ["interval"],
		                 "shards": [2], "gomaxprocs": [4], "replication": [true], "dist": ["uniform"]}]
	}`)
	g, err := LoadGrid(path)
	if err != nil {
		t.Fatal(err)
	}
	cells, err := g.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want := "e/mixA-uniform-batch_mixed-fsync_interval-shards2-procs4-repl"
	if cells[0].Key != want {
		t.Fatalf("cell key = %q, want %q", cells[0].Key, want)
	}
}
