package main

import (
	"fmt"
	"net/http"
	"time"

	"vmshortcut/internal/obs"
)

// ServerDelta is the server-side view of the measured window, computed by
// scraping the admin /metrics endpoint immediately before and after the
// measured drive and differencing. Counters are exact window deltas;
// stage percentiles are windowed (before-buckets subtracted from
// after-buckets), so a long preload cannot pollute them.
type ServerDelta struct {
	Ops              uint64 `json:"ops"`
	Frames           uint64 `json:"frames"`
	CoalescedBatches uint64 `json:"coalesced_batches"`
	CoalescedOps     uint64 `json:"coalesced_ops"`
	Errors           uint64 `json:"errors"`
	Rejects          uint64 `json:"rejects"`
	SlowOps          uint64 `json:"slow_ops"`

	// Read fast-path deltas: GET entries served by each path during the
	// window.
	FastpathSeqlock uint64 `json:"fastpath_seqlock"`
	FastpathLocked  uint64 `json:"fastpath_locked"`

	// Stages holds the windowed per-stage histograms, keyed by stage name
	// (frame_decode, shard_apply, ... — see obs.Stage). Only stages that
	// recorded during the window appear.
	Stages map[string]StageWindow `json:"stages,omitempty"`
}

// StageWindow is one pipeline stage's windowed latency summary,
// nanoseconds.
type StageWindow struct {
	Count  uint64  `json:"count"`
	MeanNS float64 `json:"mean_ns"`
	P50NS  uint64  `json:"p50_ns"`
	P99NS  uint64  `json:"p99_ns"`
}

// scrapeMetrics fetches and parses one /metrics exposition from the
// admin address.
func scrapeMetrics(adminAddr string) (*obs.Scrape, error) {
	client := http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + adminAddr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", adminAddr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: HTTP %d", adminAddr, resp.StatusCode)
	}
	s, err := obs.ParseMetrics(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", adminAddr, err)
	}
	return s, nil
}

// newServerDelta differences two scrapes into the report's server-side
// window block.
func newServerDelta(before, after *obs.Scrape) *ServerDelta {
	delta := func(name string) uint64 {
		return uint64(obs.ValueDelta(after, before, name))
	}
	d := &ServerDelta{
		Ops:              delta("eh_ops_total"),
		Frames:           delta("eh_frames_read_total"),
		CoalescedBatches: delta("eh_coalesced_batches_total"),
		CoalescedOps:     delta("eh_coalesced_ops_total"),
		Errors:           delta("eh_errors_total"),
		Rejects: delta(`eh_rejects_total{reason="read_only"}`) +
			delta(`eh_rejects_total{reason="stale"}`),
		SlowOps:         delta("eh_slow_ops_total"),
		FastpathSeqlock: delta(`eh_read_fastpath_total{level="seqlock"}`),
		FastpathLocked:  delta(`eh_read_fastpath_total{level="locked"}`),
		Stages:          make(map[string]StageWindow),
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		ah, ok := after.Hists[s.MetricName()]
		if !ok {
			continue
		}
		w := ah.Delta(before.Hists[s.MetricName()])
		if w.Count == 0 {
			continue
		}
		d.Stages[s.String()] = StageWindow{
			Count:  w.Count,
			MeanNS: w.Mean(),
			P50NS:  w.Percentile(50),
			P99NS:  w.Percentile(99),
		}
	}
	return d
}
