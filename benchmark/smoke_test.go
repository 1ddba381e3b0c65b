package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// small is every size of the benchmark scaled down so that all four
// workloads and the ladder run in a few seconds.
var small = params{
	keys:        1 << 14,
	waves:       4,
	waveInserts: 1 << 12,
	waveLookups: 1 << 13,
	nodeSlots:   1 << 9,
	streamLen:   1 << 16,
	fitKeys:     1 << 10,
	rungChunks:  4,
	logRecords:  256,
	syncs:       16,
	warmup:      50 * time.Millisecond,
	slice:       100 * time.Millisecond,
	setups:      2,
}

const smallWindow = 300 * time.Millisecond

func smallConfig(t *testing.T) *config {
	t.Helper()
	logw = io.Discard
	return &config{params: small, seed: 1, outDir: t.TempDir()}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesProgram: BENCHMARK.json declares exactly the workloads
// and metrics the program has, with the same units and bounds.
func TestManifestMatchesProgram(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, m.Workloads[i].Name, w.name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, declared []manifestMetric, defs []metricDef, bounded bool) {
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(declared), len(defs))
		}
		for i, d := range defs {
			got := declared[i]
			if got.Name != d.name || got.Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", kind, i, got.Name, got.Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(d.name) || seen[d.name] {
				t.Errorf("%s: name %q is malformed or used twice", kind, d.name)
			}
			seen[d.name] = true
			if got.Better != "higher" && got.Better != "lower" {
				t.Errorf("%s: better is %q", d.name, got.Better)
			}
			if bounded != (got.Bound != nil) {
				t.Errorf("%s: bound present = %v, want %v", d.name, got.Bound != nil, bounded)
			}
			if bounded && got.Bound != nil && *got.Bound != bounds[d.name] {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program", d.name, *got.Bound, bounds[d.name])
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if len(bounds) != len(endToEnd) {
		t.Errorf("%d bounds for %d end-to-end metrics", len(bounds), len(endToEnd))
	}
}

// checkOutcome: the run emitted exactly the declared names, each once, each
// finite, and its result line is the contract's JSON object.
func checkOutcome(t *testing.T, o *outcome, defs []metricDef) {
	t.Helper()
	if o.failed != 0 || o.attempted == 0 {
		t.Errorf("%d of %d operations failed", o.failed, o.attempted)
	}
	if len(o.metrics) != len(defs) {
		t.Errorf("emitted %d metrics, declared %d", len(o.metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: no finite value (%v)", d.name, v)
		}
	}
	line, err := o.resultLine(defs)
	if err != nil {
		t.Fatal(err)
	}
	var r struct {
		Correct   *bool
		Attempted *uint64
		Failed    *uint64
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("result line: %v\n%s", err, line)
	}
	if r.Correct == nil || r.Attempted == nil || r.Failed == nil || len(r.Metrics) != len(defs) {
		t.Fatalf("result line lacks a key or a metric: %s", line)
	}
	for _, d := range defs {
		if strings.Count(line, `"`+d.name+`":`) != 1 {
			t.Errorf("%s is not emitted exactly once", d.name)
		}
		if m := r.Metrics[d.name]; m.Value == nil || m.Unit != d.unit {
			t.Errorf("%s: emitted %+v, want unit %s", d.name, m, d.unit)
		}
	}
}

func TestWorkloadsUntraced(t *testing.T) {
	h, err := preflight(t.TempDir())
	if err != nil {
		t.Skip("host refused:", err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o, err := runUntraced(smallConfig(t), h, w, smallWindow)
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, o, endToEnd)
			for _, d := range endToEnd {
				if o.metrics[d.name] <= 0 {
					t.Errorf("%s = %v: an end-to-end metric is never 0", d.name, o.metrics[d.name])
				}
			}
		})
	}
}

func TestWorkloadsTraced(t *testing.T) {
	h, err := preflight(t.TempDir())
	if err != nil {
		t.Skip("host refused:", err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := smallConfig(t)
			o, err := runTraced(cfg, h, w, smallWindow)
			if err != nil {
				t.Fatal(err)
			}
			checkOutcome(t, o, perLayer)
			if w.name == "index_lookup" && o.metrics["sceh.shortcut_share"] != 1 {
				t.Errorf("sceh.shortcut_share = %v on index_lookup, want 1", o.metrics["sceh.shortcut_share"])
			}
			b, err := os.ReadFile(filepath.Join(cfg.outDir, "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				Names []string
				Spans [][4]int64
			}
			if err := json.Unmarshal(b, &tr); err != nil {
				t.Fatalf("trace.json: %v", err)
			}
			for i, s := range tr.Spans {
				if s[0] < 0 || int(s[0]) >= len(tr.Names) || s[1] >= int64(i) || s[3] < s[2] {
					t.Fatalf("span %d is malformed: %v", i, s)
				}
			}
		})
	}
}

// TestHistQuantile: quantiles are interpolated inside a bucket, within the
// bucket width of the exact value.
func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1000); v < 2000; v++ {
		h.record(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := 1000 + 1000*q
		if got := h.quantile(q); math.Abs(got-want) > 0.02*want {
			t.Errorf("quantile(%v) = %v, want about %v", q, got, want)
		}
	}
}
