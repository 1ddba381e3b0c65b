package harness

import (
	"fmt"
	"io"
	"math/bits"
	"strings"
)

// Histogram is a log₂-bucketed latency histogram: values land in bucket
// floor(log2(v)), giving ~2× resolution over nine decades with 64 fixed
// buckets and no allocation on the record path. Good enough to separate
// "L1 hit", "TLB miss", "page fault", and "rehash stall" populations.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// Record adds one value (e.g. nanoseconds).
func (h *Histogram) Record(v uint64) {
	b := 0
	if v > 0 {
		b = 63 - bits.LeadingZeros64(v)
	}
	h.buckets[b]++
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
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean of recorded values.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return the observed extremes.
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest recorded value.
func (h *Histogram) Max() uint64 { return h.max }

// Percentile returns an upper bound for the p-th percentile (p in [0,100]):
// the top edge of the bucket containing it.
func (h *Histogram) Percentile(p float64) uint64 {
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
	for b, n := range h.buckets {
		seen += n
		if seen > rank {
			if b == 63 {
				return ^uint64(0)
			}
			return 1<<(b+1) - 1
		}
	}
	return h.max
}

// Merge adds other's samples into h.
func (h *Histogram) Merge(other *Histogram) {
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

// Render writes a textual histogram with percentile summary.
func (h *Histogram) Render(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	if h.count == 0 {
		fmt.Fprintln(w, "(no samples)")
		return
	}
	fmt.Fprintf(w, "samples %d  mean %.1f  min %d  p50 %d  p99 %d  p99.9 %d  max %d\n",
		h.count, h.Mean(), h.min,
		h.Percentile(50), h.Percentile(99), h.Percentile(99.9), h.max)
	var peak uint64
	for _, n := range h.buckets {
		if n > peak {
			peak = n
		}
	}
	for b, n := range h.buckets {
		if n == 0 {
			continue
		}
		bar := int(float64(n) / float64(peak) * 40)
		fmt.Fprintf(w, "%12d..%-12d %10d %s\n",
			uint64(1)<<b, (uint64(1)<<(b+1))-1, n, strings.Repeat("#", bar))
	}
}
