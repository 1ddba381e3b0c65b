package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// reported is the contract's result object, as a child process printed it.
type reported struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChild runs one workload in a freshly exec'd copy of this program, so
// that its RSS, mappings and GC state start clean, and parses its result.
func runChild(name string, seed uint64, seconds int, traced bool, outDir string) (*reported, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", trace, "-out", outDir)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, logw
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r reported
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		return nil, fmt.Errorf("%s: no result (%v): %v", name, runErr, err)
	}
	if runErr != nil {
		return &r, fmt.Errorf("%s: %w", name, runErr)
	}
	return &r, nil
}

// runAll runs every workload once — or, with selfcheck, that many sets —
// and prints one table. A traced set also writes layers.json, the summary
// that is committed beside the benchmark.
func runAll(stdout io.Writer, seed uint64, seconds int, traced bool, selfcheck int, outDir string) int {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	sets := max(selfcheck, 1)
	results := make([]map[string]*reported, sets)
	code := 0
	for s := range results {
		results[s] = map[string]*reported{}
		for _, w := range workloads {
			fmt.Fprintf(logw, "set %d of %d: %s\n", s+1, sets, w.name)
			r, err := runChild(w.name, seed, seconds, traced, outDir)
			if err != nil {
				fmt.Fprintln(logw, "benchmark:", err)
				code = 1
			}
			if r == nil {
				return 1
			}
			results[s][w.name] = r
		}
	}

	fmt.Fprintf(stdout, "%-34s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Fprintf(stdout, " %14s", w.name)
	}
	fmt.Fprintln(stdout)
	last := results[sets-1]
	for _, d := range defs {
		fmt.Fprintf(stdout, "%-34s %-6s", d.name, d.unit)
		for _, w := range workloads {
			fmt.Fprintf(stdout, " %14.6g", last[w.name].Metrics[d.name].Value)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-34s %-6s", "failed_ops_share", "ratio")
	for _, w := range workloads {
		fmt.Fprintf(stdout, " %14.6g", float64(last[w.name].Failed)/float64(last[w.name].Attempted))
	}
	fmt.Fprintln(stdout)

	if selfcheck > 1 {
		// The largest relative gap between any two sets, beside the bound.
		fmt.Fprintf(stdout, "\nlargest gap between %d sets, as a share of the smaller value\n", sets)
		for _, d := range defs {
			fmt.Fprintf(stdout, "%-34s %-6.2f", d.name, bounds[d.name])
			for _, w := range workloads {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, set := range results {
					v := set[w.name].Metrics[d.name].Value
					lo, hi = min(lo, v), max(hi, v)
				}
				mark := " "
				if b, ok := bounds[d.name]; ok && (hi-lo)/lo > b {
					mark = "!"
				}
				fmt.Fprintf(stdout, " %13.4f%s", (hi-lo)/lo, mark)
			}
			fmt.Fprintln(stdout)
		}
	}
	if traced {
		if err := writeLayers(filepath.Join(outDir, "layers.json"), seed, seconds, last); err != nil {
			fmt.Fprintln(logw, "benchmark:", err)
			return 1
		}
	}
	return code
}

// writeLayers stores one traced set: per workload, every per-layer metric.
func writeLayers(path string, seed uint64, seconds int, set map[string]*reported) error {
	doc := struct {
		Seed      uint64                            `json:"seed"`
		Seconds   int                               `json:"seconds"`
		Workloads map[string]map[string]metricValue `json:"workloads"`
	}{seed, seconds, map[string]map[string]metricValue{}}
	for name, r := range set {
		doc.Workloads[name] = r.Metrics
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
