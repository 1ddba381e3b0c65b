package main

import (
	"math"
	"math/bits"
)

// hist is a log-linear histogram of durations in nanoseconds: 64 linear
// sub-buckets per power of two, so a bucket is at most 1.6 % wide. Recording
// is one increment; a quantile is interpolated by rank inside its bucket, so
// it is not quantised to bucket edges.
type hist struct {
	counts [64 * histSub]uint64
	n      uint64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
)

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 1 - histSubBits // ns>>e is in [histSub, 2*histSub)
	return (e+1)*histSub + int(ns>>uint(e)) - histSub
}

// histBounds returns the bucket's value range [lo, hi).
func histBounds(b int) (lo, hi float64) {
	if b < histSub {
		return float64(b), float64(b + 1)
	}
	e := uint(b/histSub - 1)
	m := uint64(b%histSub + histSub)
	return float64(m << e), float64((m + 1) << e)
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n)
	cum := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, hi := histBounds(b)
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	return math.NaN() // unreachable: the counts sum to n
}
