package metrics

import (
	"math"
	"runtime"
	"testing"
)

// allocGrowth reports the bytes fn allocated, all goroutines included.
func allocGrowth(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeAllocBound is what decoding len bytes may allocate: each byte can
// carry a fifth of a Sample plus a name byte, and the constant absorbs the
// runtime's own allocations meanwhile.
func decodeAllocBound(n int) uint64 { return 1<<20 + 32*uint64(n) }

func sameSample(a, b Sample) bool {
	return a.Name == b.Name && a.Kind == b.Kind && a.Value == b.Value &&
		math.Float64bits(a.Gauge) == math.Float64bits(b.Gauge) && a.Hist == b.Hist
}

// TestDecodeSamplesBoundsClaimedCount: a count the payload cannot hold
// reserves nothing for it. Before the bound, these four bytes reserved about
// 1 M samples (109 MB).
func TestDecodeSamplesBoundsClaimedCount(t *testing.T) {
	payload := []byte{0x00, 0x0f, 0xff, 0xff}
	var err error
	if got := allocGrowth(func() { _, err = DecodeSamples(payload) }); got > decodeAllocBound(len(payload)) {
		t.Fatalf("decoding a 4-byte payload allocated %d bytes", got)
	}
	if err != ErrTruncatedSamples {
		t.Fatalf("err = %v, want ErrTruncatedSamples", err)
	}
}

// FuzzMetricsWire feeds DecodeSamples arbitrary bytes: it must not panic,
// must allocate in proportion to the input rather than to the counts the
// input claims, and whatever it decodes — counters, gauges, histograms and
// unknown kinds alike — must survive AppendSamples and a second decode.
func FuzzMetricsWire(f *testing.F) {
	// testdata/fuzz/FuzzMetricsWire holds hand-made payloads: a future kind,
	// a widened histogram, cut records, claimed counts the bytes cannot hold.
	var h Histogram
	for v := int64(1); v <= 100; v++ {
		h.Record(v)
	}
	f.Add(AppendSamples(nil, []Sample{C("a_total", 42), G(`b{tenant="1"}`, -1.5), H("c_ns", &h), {Name: "d", Kind: 9}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var got []Sample
		var err error
		if n := allocGrowth(func() { got, err = DecodeSamples(b) }); n > decodeAllocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d", len(b), n)
		}
		if err != nil {
			return
		}
		again, err := DecodeSamples(AppendSamples(nil, got))
		if err != nil {
			t.Fatalf("re-encoded samples do not decode: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("round trip kept %d of %d samples", len(again), len(got))
		}
		for i := range got {
			if !sameSample(again[i], got[i]) {
				t.Fatalf("sample %d: %+v after the round trip, was %+v", i, again[i], got[i])
			}
		}
	})
}
