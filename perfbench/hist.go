package main

import "math/bits"

// hist is a log-linear histogram of non-negative int64 samples (ns):
// exact below 256, then 128 sub-buckets per power of two (under 0.8%
// relative bucket width). It is fixed-size, so recording never
// allocates and the benchmark's own memory does not grow with the run.
type hist struct {
	n      int64
	sum    int64
	counts [histBuckets]int64
}

const (
	histSubBits = 7
	histLinear  = 1 << (histSubBits + 1) // values below this are exact
	histBuckets = histLinear + 48<<histSubBits
)

func histIndex(v int64) int {
	if v < histLinear {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - histSubBits - 1
	sub := int(v>>e) - 1<<histSubBits
	return histLinear + (e-1)<<histSubBits + sub
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (lo, width int64) {
	if i < histLinear {
		return int64(i), 1
	}
	j := i - histLinear
	e := j>>histSubBits + 1
	sub := int64(j&(1<<histSubBits-1)) + 1<<histSubBits
	return sub << e, 1 << e
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.n++
	h.sum += v
	h.counts[histIndex(v)]++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the q-quantile, interpolated linearly inside the
// bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, w := bucketRange(i)
			if w == 1 {
				return float64(lo) // an exact bucket
			}
			return float64(lo) + float64(w)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(histBuckets - 1)
	return float64(lo + w)
}
