package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram has non-zero stats: %v", h.String())
	}
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty quantile = %d, want 0", h.Quantile(0.5))
	}
}

func TestHistogramSingleValue(t *testing.T) {
	var h Histogram
	h.Record(42)
	if h.Count() != 1 || h.Min() != 42 || h.Max() != 42 {
		t.Fatalf("bad single-value stats: %s", h.String())
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Fatalf("Quantile(%v) = %d, want 42", q, got)
		}
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative sample should clamp to 0: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below subBuckets are recorded exactly.
	var h Histogram
	for v := int64(0); v < subBuckets; v++ {
		h.Record(v)
	}
	if h.Count() != subBuckets {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Quantile(0.5); got < subBuckets/2-1 || got > subBuckets/2+1 {
		t.Fatalf("median = %d, want about %d", got, subBuckets/2)
	}
}

func TestBucketMonotone(t *testing.T) {
	// bucketIndex must be monotone non-decreasing in the value.
	prev := 0
	for v := int64(0); v < 1<<22; v += 97 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestBucketLowInvertsIndex(t *testing.T) {
	// bucketLow(bucketIndex(v)) <= v and within the relative error bound.
	err := quick.Check(func(raw int64) bool {
		v := raw % (1 << 40)
		if v < 0 {
			v = -v
		}
		low := bucketLow(bucketIndex(v))
		if low > v {
			return false
		}
		// Relative error bounded by one sub-bucket width.
		return float64(v-low) <= math.Max(1, float64(v)/float64(subBuckets))+1
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	const n = 100000
	for i := 0; i < n; i++ {
		h.Record(int64(rng.Intn(1_000_000)))
	}
	// Uniform distribution: p50 should be ~500k within histogram error.
	p50 := float64(h.Quantile(0.5))
	if p50 < 470_000 || p50 > 530_000 {
		t.Fatalf("p50 = %v, want about 500000", p50)
	}
	p99 := float64(h.Quantile(0.99))
	if p99 < 960_000 || p99 > 1_000_000 {
		t.Fatalf("p99 = %v, want about 990000", p99)
	}
}

func TestHistogramMergePreservesCountAndSum(t *testing.T) {
	prop := func(a, b []uint16) bool {
		var ha, hb, merged Histogram
		for _, v := range a {
			ha.Record(int64(v))
		}
		for _, v := range b {
			hb.Record(int64(v))
		}
		merged.Merge(&ha)
		merged.Merge(&hb)
		return merged.Count() == int64(len(a)+len(b)) &&
			merged.Sum() == ha.Sum()+hb.Sum()
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMergeMinMax(t *testing.T) {
	var a, b Histogram
	a.Record(10)
	a.Record(100)
	b.Record(5)
	b.Record(50)
	a.Merge(&b)
	if a.Min() != 5 || a.Max() != 100 {
		t.Fatalf("merged min/max = %d/%d, want 5/100", a.Min(), a.Max())
	}
	var empty Histogram
	a.Merge(&empty) // merging empty must not disturb min
	if a.Min() != 5 {
		t.Fatalf("merge with empty changed min to %d", a.Min())
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(9)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatalf("reset left state: %s", h.String())
	}
}

func TestConcurrentHistogram(t *testing.T) {
	var ch ConcurrentHistogram
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 1000; i++ {
				ch.Record(int64(g*1000 + i))
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	snap := ch.Snapshot()
	if snap.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", snap.Count())
	}
}
