// Package metrics provides the latency histograms, stage spans and metric
// registry the servers export and the benchmark reads.
//
// The histogram is a fixed-layout log-linear histogram (similar in spirit to
// HdrHistogram): values are bucketed into power-of-two magnitude groups, each
// split into a fixed number of linear sub-buckets. This gives a bounded
// relative error (~1/subBuckets) over an arbitrary dynamic range while
// keeping Record at a handful of instructions, which matters because the
// commit path records a sample per stage per request.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

const (
	// subBucketBits controls histogram resolution: each power-of-two range
	// is divided into 1<<subBucketBits linear buckets (relative error ~0.8%).
	subBucketBits = 7
	subBuckets    = 1 << subBucketBits
	// maxMagnitude bounds the value range to [0, 2^(maxMagnitude+subBucketBits)).
	maxMagnitude = 42
)

// Histogram records non-negative integer samples (typically latencies in
// microseconds) with bounded relative error. The zero value is ready to use.
// Histogram is not safe for concurrent use; wrap it in a Mutex or use
// ConcurrentHistogram when recording from multiple goroutines.
type Histogram struct {
	counts [maxMagnitude * subBuckets]int64
	total  int64
	sum    int64
	min    int64
	max    int64
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v int64) int {
	if v < 0 {
		v = 0
	}
	// Values below subBuckets map directly to linear buckets.
	if v < subBuckets {
		return int(v)
	}
	mag := bits.Len64(uint64(v)) - 1 - subBucketBits // power-of-two group above the linear range
	sub := v >> uint(mag)                            // in [subBuckets, 2*subBuckets)
	idx := (mag+1)*subBuckets + int(sub) - subBuckets
	if idx >= len((&Histogram{}).counts) {
		idx = len((&Histogram{}).counts) - 1
	}
	return idx
}

// bucketLow returns the lowest value mapping to bucket i.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	mag := i/subBuckets - 1
	sub := i%subBuckets + subBuckets
	return int64(sub) << uint(mag)
}

// bucketMid returns the midpoint of bucket i's value range, the least-biased
// single representative for a quantile that lands in the bucket. Buckets in
// the linear range (< subBuckets) hold exactly one value, so the midpoint is
// exact there.
func bucketMid(i int) int64 {
	low := bucketLow(i)
	if i+1 >= maxMagnitude*subBuckets {
		return low
	}
	high := bucketLow(i+1) - 1
	return low + (high-low)/2
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.total++
	h.sum += v
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.total }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest recorded sample, or 0 if empty.
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest recorded sample, or 0 if empty.
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean of the samples, or 0 if empty.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Quantile returns an approximation of the q-quantile (0 <= q <= 1).
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= rank {
			// Report the winning bucket's midpoint: bucketLow would
			// systematically under-report by up to one bucket width.
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.total == 0 {
		return
	}
	if h.total == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i := range h.counts {
		h.counts[i] += other.counts[i]
	}
	h.total += other.total
	h.sum += other.sum
}

// Reset discards all samples.
func (h *Histogram) Reset() {
	*h = Histogram{}
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%d p95=%d p99=%d max=%d",
		h.total, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.max)
}

// ConcurrentHistogram is a mutex-protected Histogram safe for concurrent use.
type ConcurrentHistogram struct {
	mu sync.Mutex
	h  Histogram
}

// Record adds one sample.
func (c *ConcurrentHistogram) Record(v int64) {
	c.mu.Lock()
	c.h.Record(v)
	c.mu.Unlock()
}

// Snapshot returns a copy of the underlying histogram.
func (c *ConcurrentHistogram) Snapshot() Histogram {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.h
}
