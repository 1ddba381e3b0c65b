package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"

	"vmshortcut"
	"vmshortcut/internal/wire"
)

// fullReport returns a Report with every field populated, so marshaling
// exercises the whole schema (omitempty fields included).
func fullReport() *Report {
	return &Report{
		Bench: "server", Addr: "127.0.0.1:1", Mix: "A", Dist: "zipfian",
		Conns: 4, Pipeline: 32, BatchMode: BatchMixed,
		Loaded: 1000, Seed: 42, DurationS: 1.5,
		Ops: 123456, Errors: 0, Throughput: 82304.0,
		LoadS: 0.1, LoadRate: 10000,
		Latency:  LatencyNS{Samples: 100, Mean: 1000.5, Min: 10, P50: 900, P95: 2000, P99: 3000, Max: 9999},
		OpCounts: map[string]uint64{"read": 60000, "update": 63456},
		Server:   wire.ServerCounters{Ops: 123456, Frames: 2, CoalescedBatches: 3},
		Store:    vmshortcut.Stats{Entries: 1000},
		Durability: wire.DurabilityCounters{
			WALRecords: 7, WALSyncs: 3, DurableLSN: 7, SnapshotLSN: 1,
		},
		Replication: &wire.ReplicationStats{
			Primary: &wire.PrimaryReplCounters{Followers: 1, LastLSN: 7, MinAckedLSN: 7},
		},
	}
}

// reportKeys is the pinned top-level key set of the BENCH_server.json
// schema. Adding a field means adding it here — deliberately; a field
// vanishing (or the deprecated "batch" int resurfacing) fails the test.
var reportKeys = []string{
	"addr", "batch_mode", "bench",
	"conns", "dist", "durability", "duration_seconds", "errors",
	"latency_ns", "load_ops_per_sec", "load_seconds", "loaded", "mix",
	"op_counts", "ops", "pipeline", "replication", "seed",
	"server", "store", "throughput_ops_per_sec",
}

var latencyKeys = []string{"max", "mean", "min", "p50", "p95", "p99", "samples"}

func TestReportSchemaRoundTrip(t *testing.T) {
	blob, err := json.Marshal(fullReport())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["batch"]; ok {
		t.Fatalf(`the deprecated "batch" int is back in the schema; it was removed after its one-release grace period`)
	}
	var got []string
	for k := range m {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, reportKeys) {
		t.Fatalf("report schema drifted:\n got  %v\n want %v\n(update reportKeys deliberately when adding fields)", got, reportKeys)
	}
	var lat map[string]json.RawMessage
	if err := json.Unmarshal(m["latency_ns"], &lat); err != nil {
		t.Fatal(err)
	}
	var gotLat []string
	for k := range lat {
		gotLat = append(gotLat, k)
	}
	sort.Strings(gotLat)
	if !reflect.DeepEqual(gotLat, latencyKeys) {
		t.Fatalf("latency_ns schema drifted:\n got  %v\n want %v", gotLat, latencyKeys)
	}

	// Round trip: unmarshal into a fresh Report and re-marshal — no field
	// may be silently dropped or renamed on either direction.
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	blob2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("report did not survive a JSON round trip:\n first  %s\n second %s", blob, blob2)
	}
}

// TestReportOmitsEmptyOptionals pins the omitempty contract: a plain
// memory-only run reports no replication section.
func TestReportOmitsEmptyOptionals(t *testing.T) {
	r := fullReport()
	r.BatchMode, r.Replication = BatchNone, nil
	blob, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"batch", "replication"} {
		if _, ok := m[k]; ok {
			t.Errorf("key %q present in a run that has nothing to report under it", k)
		}
	}
}
