// Package obs is the server-side observability layer: a shared
// high-dynamic-range latency histogram (promoted from internal/harness,
// here in both a single-writer form and a striped concurrency-safe
// form), counter/gauge registries that render Prometheus text exposition
// and JSON, the serving pipeline's per-stage histogram set, a per-batch
// stage trace for slow-operation logging, and a parser for the
// Prometheus exposition — so a scraper (ehload -admin-addr) can diff
// two scrapes and recover windowed percentiles per stage.
//
// Everything on the record path is allocation-free: histograms are
// fixed-size bucket arrays, counters are single atomics, and the striped
// Hist records with two atomic adds. Snapshots, rendering, and parsing
// are off the hot path and allocate freely.
package obs

import "math/bits"

// hdrSubBits sets the HDR histogram's sub-bucket resolution: each
// power-of-two range is split into 2^hdrSubBits linear sub-buckets, so
// the relative quantization error is at most 2^-hdrSubBits (~3%).
const hdrSubBits = 5

// hdrSize is the bucket count: values below 2^hdrSubBits get exact
// buckets, every higher power-of-two range gets 2^hdrSubBits sub-buckets.
const hdrSize = (64 - hdrSubBits + 1) << hdrSubBits

// NumBuckets is the fixed bucket count of HDR and Hist. Exposition and
// scraping share one bucketization: BucketUpper(i) for i in [0,
// NumBuckets) enumerates every possible "le" bound.
const NumBuckets = hdrSize

// BucketUpper returns the largest value bucket idx holds — the "le"
// bound that bucket exposes in Prometheus text exposition.
func BucketUpper(idx int) uint64 { return hdrUpper(idx) }

// HDR is a high-dynamic-range latency histogram in the style of
// HdrHistogram: fixed memory (1920 buckets, 15 KiB), no allocation on the
// record path, full uint64 range, and ≤3% relative error on any
// percentile. It is single-writer (or externally synchronized); the
// concurrency-safe striped variant is Hist, which snapshots into an HDR.
type HDR struct {
	buckets [hdrSize]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// hdrIndex maps a value onto its bucket.
func hdrIndex(v uint64) int {
	if v < 1<<hdrSubBits {
		return int(v) // exact buckets for small values
	}
	msb := 63 - bits.LeadingZeros64(v)
	shift := msb - hdrSubBits
	group := msb - hdrSubBits + 1
	return group<<hdrSubBits + int(v>>shift)&(1<<hdrSubBits-1)
}

// hdrUpper returns the largest value a bucket holds — the percentile
// estimate reported for ranks landing in it.
func hdrUpper(idx int) uint64 {
	if idx < 1<<hdrSubBits {
		return uint64(idx)
	}
	group := idx >> hdrSubBits
	sub := idx & (1<<hdrSubBits - 1)
	msb := group + hdrSubBits - 1
	shift := msb - hdrSubBits
	return 1<<msb + uint64(sub+1)<<shift - 1
}

// Record adds one value (e.g. nanoseconds).
func (h *HDR) Record(v uint64) {
	h.buckets[hdrIndex(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded values.
func (h *HDR) Count() uint64 { return h.count }

// Sum returns the sum of recorded values.
func (h *HDR) Sum() uint64 { return h.sum }

// Mean returns the arithmetic mean of recorded values.
func (h *HDR) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min returns the smallest recorded value.
func (h *HDR) Min() uint64 { return h.min }

// Max returns the largest recorded value.
func (h *HDR) Max() uint64 { return h.max }

// Percentile returns the p-th percentile (p in [0, 100]) to within the
// histogram's ~3% bucket resolution, clamped to the observed max.
func (h *HDR) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(p / 100 * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for idx, n := range h.buckets {
		seen += n
		if seen > rank {
			u := hdrUpper(idx)
			if u > h.max {
				u = h.max
			}
			return u
		}
	}
	return h.max
}

// Merge adds other's samples into h.
func (h *HDR) Merge(other *HDR) {
	if other.count == 0 {
		return
	}
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}
