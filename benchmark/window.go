package main

import (
	"math"
	"sort"
	"time"

	"vmshortcut"
)

// unitOps is the unit of work every workload times: one pipelined flush of
// 32 single-op frames on a served workload, 32 back-to-back calls on an
// in-process one. chunkUnits of them make one 4096-call trace chunk.
const (
	unitOps    = 32
	chunkUnits = 128
	chunkOps   = unitOps * chunkUnits
)

// window is what one closed-loop drive of a workload measured. The timed
// window is cut into slices — one second each, or one cycle each for
// index_waves — and every time metric is first computed per slice.
type window struct {
	slice  time.Duration
	slices []sliceStat
	// rates, p50s and p99s hold one value per slice: operations per
	// second, and the median and 99th percentile unit time in ns.
	rates, p50s, p99s []float64
	rtt               hist   // every unit of every slice
	ops               uint64 // verified operations attempted
	puts              uint64 // how many of them were PUTs (served workloads)
	failed            uint64
}

type sliceStat struct {
	ops uint64
	rtt hist
}

func newWindow(d, slice time.Duration) *window {
	return &window{slice: slice, slices: make([]sliceStat, d/slice)}
}

// unit accounts one unit that ended at offset end from the window's start.
// A unit that ends after the last whole slice counts as work done but
// belongs to no slice.
func (w *window) unit(start, end time.Duration) {
	w.ops += unitOps
	if s := int(end / w.slice); s < len(w.slices) {
		w.slices[s].ops += unitOps
		w.slices[s].rtt.record(int64(end - start))
	}
}

// addSlice appends a slice measured as a whole: one cycle of index_waves.
func (w *window) addSlice(ops uint64, took time.Duration, rtt *hist) {
	w.rates = append(w.rates, float64(ops)/took.Seconds())
	w.p50s = append(w.p50s, rtt.quantile(0.50))
	w.p99s = append(w.p99s, rtt.quantile(0.99))
	w.rtt.merge(rtt)
	w.ops += ops
}

func (w *window) merge(o *window) {
	for i := range o.slices {
		w.slices[i].ops += o.slices[i].ops
		w.slices[i].rtt.merge(&o.slices[i].rtt)
	}
	w.ops += o.ops
	w.puts += o.puts
	w.failed += o.failed
}

// close turns the fixed-length slices into per-slice values.
func (w *window) close() {
	for i := range w.slices {
		s := &w.slices[i]
		w.rtt.merge(&s.rtt)
		w.rates = append(w.rates, float64(s.ops)/w.slice.Seconds())
		w.p50s = append(w.p50s, s.rtt.quantile(0.50))
		w.p99s = append(w.p99s, s.rtt.quantile(0.99))
	}
	w.slices = nil
}

// A run reports, of its slices, the quartile on the good side: the upper
// quartile of the rates, the lower quartile of the latencies. On the shared
// host this benchmark was written on, a neighbour can take cycles, cache and
// memory bandwidth away for seconds at a time but can never add any, so the
// median slice follows how busy the host was while the good-side quartile
// follows the program: over ten seeds it spread about half as much
// (README.md, "Steadiness"). It is still an order statistic with a quarter
// of the slices beyond it, not the best slice.
func (w *window) opsPerSec() float64 { return quantile(w.rates, 0.75) }
func (w *window) rttP50us() float64  { return quantile(w.p50s, 0.25) / 1e3 }
func (w *window) rttP99us() float64  { return quantile(w.p99s, 0.25) / 1e3 }

// quantile is the q-quantile of a small sample, interpolated linearly
// between order statistics; NaN values (the latencies of a slice in which
// nothing completed) are left out, and an empty sample gives NaN.
func quantile(v []float64, q float64) float64 {
	s := make([]float64, 0, len(v))
	for _, x := range v {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (s[i+1]-s[i])*(pos-float64(i))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// counters are the layer counts a traced window reports as deltas. They are
// cumulative since set-up; index_waves, which opens a store per cycle, sums
// over the stores it has closed.
type counters struct {
	store vmshortcut.Stats
	// From the server's counters, over one connection's Stats call.
	coalescedBatches, coalescedOps uint64
}

// env is one set-up workload. drive runs it closed-loop for at least d and
// may be called repeatedly (warm-up, then the timed window).
type env interface {
	drive(d time.Duration, tr *tracer) *window
	counters() counters
	// finish runs once the driving is over: the after-run checks that are
	// part of the workload (serve_durable recovers its crash image). It
	// returns the operations it attempted and how many failed.
	finish() (attempted, failed uint64, err error)
	close() error
}
