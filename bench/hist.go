package main

import "math/bits"

// Hist is a log-linear (HDR-style) histogram of non-negative int64
// samples (the benchmark records nanoseconds). Values below 2^histSubBits
// are counted exactly; above that every power-of-two octave is cut into
// 2^histSubBits equal buckets, so a quantile read back from a bucket
// midpoint is within 2^-(histSubBits+1) (< 0.4%) of a sample in that
// bucket. Histograms with the same layout merge by adding counts, which
// is what lets per-client and per-slice histograms combine without
// keeping samples. It depends on nothing else in this package so it can
// move into internal/obs unchanged.
type Hist struct {
	counts []uint64
	n      uint64
	max    int64
}

const histSubBits = 7

// histBuckets covers every non-negative int64.
const histBuckets = (64 - histSubBits) << histSubBits

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{counts: make([]uint64, histBuckets)} }

func histBucket(v int64) int {
	if v < 1<<histSubBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - histSubBits
	return (shift+1)<<histSubBits + int(v>>shift) - 1<<histSubBits
}

// histMid returns the midpoint of bucket i.
func histMid(i int) int64 {
	if i < 1<<histSubBits {
		return int64(i)
	}
	shift := i>>histSubBits - 1
	low := int64(i&(1<<histSubBits-1)+1<<histSubBits) << shift
	return low + (int64(1)<<shift)/2
}

// Record adds one sample; negative samples count as 0.
func (h *Hist) Record(v int64) {
	h.counts[histBucket(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// Merge adds every sample of o into h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// Count returns the number of samples recorded.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the value at rank ceil(q*n) (the same sample an exact
// sort would pick) to within the bucket resolution; 0 when empty. The
// top bucket reports the exact maximum.
func (h *Hist) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank >= h.n {
		return h.max
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			if m := histMid(i); m < h.max {
				return m
			}
			return h.max
		}
	}
	return h.max
}
