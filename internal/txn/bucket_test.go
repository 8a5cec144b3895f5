package txn

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/oracle"
)

func TestPrefixBucketerBucket(t *testing.T) {
	b := PrefixBucketer{PrefixLen: 4}
	if got := b.Bucket("user000123"); got != "user" {
		t.Fatalf("Bucket = %q", got)
	}
	if got := b.Bucket("ab"); got != "ab" {
		t.Fatalf("short key bucket = %q", got)
	}
}

func TestPrefixBucketerRange(t *testing.T) {
	b := PrefixBucketer{PrefixLen: 2}
	labels := b.RangeBuckets("aa111", "ac999")
	want := map[string]bool{"aa": true, "ab": true, "ac": true}
	if len(labels) != len(want) {
		t.Fatalf("labels = %v", labels)
	}
	for _, l := range labels {
		if !want[l] {
			t.Fatalf("unexpected label %q", l)
		}
	}
}

func TestPrefixBucketerUnboundedRange(t *testing.T) {
	b := PrefixBucketer{PrefixLen: 2}
	labels := b.RangeBuckets("aa", "")
	if len(labels) != 1 {
		t.Fatalf("unbounded range should degrade to one whole-table bucket: %v", labels)
	}
}

func TestNextPrefixCarry(t *testing.T) {
	if nextPrefix("az") != "a{" { // plain byte increment
		t.Fatalf("nextPrefix(az) = %q", nextPrefix("az"))
	}
	if nextPrefix("a\xff") != "b\x00" { // carry into the previous byte
		t.Fatalf("nextPrefix(a\\xff) = %q", nextPrefix("a\xff"))
	}
	if nextPrefix("\xff\xff") != "\xff\xff" {
		t.Fatal("all-0xff must wrap to itself")
	}
}

// TestBucketScanDetectsRangeConflict is the §5.2 scenario: an analytics
// transaction scans a range using the compact bucket read set; a concurrent
// OLTP write inside the range must still abort it.
func TestBucketScanDetectsRangeConflict(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{Bucketer: PrefixBucketer{PrefixLen: 4}})
	seed := begin(t, c)
	for i := 0; i < 10; i++ {
		put(t, seed, fmt.Sprintf("user%03d", i), "v")
	}
	commit(t, seed)

	analytics := begin(t, c)
	rows, err := analytics.BucketScan("user000", "user999", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("scan saw %d rows", len(rows))
	}

	// Concurrent OLTP write of a row *not individually read-tracked* by
	// the analytics transaction.
	w := begin(t, c)
	put(t, w, "user005", "updated")
	commit(t, w)

	// The analytics transaction writes out a summary and must conflict
	// via the bucket identifier.
	put(t, analytics, "summary", "10 rows")
	if err := analytics.Commit(); !errors.Is(err, ErrConflict) {
		t.Fatalf("bucket-level conflict missed: %v", err)
	}
}

// TestBucketScanNoFalseConflictOutsideRange: writes outside the scanned
// buckets do not abort the analytics transaction.
func TestBucketScanNoConflictOutsideRange(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{Bucketer: PrefixBucketer{PrefixLen: 4}})
	seed := begin(t, c)
	put(t, seed, "user001", "v")
	put(t, seed, "other99", "v")
	commit(t, seed)

	analytics := begin(t, c)
	if _, err := analytics.BucketScan("user000", "user999", 0); err != nil {
		t.Fatal(err)
	}
	w := begin(t, c)
	put(t, w, "other99", "updated") // different bucket
	commit(t, w)

	put(t, analytics, "summary", "x")
	if err := analytics.Commit(); err != nil {
		t.Fatalf("false bucket conflict: %v", err)
	}
}

func TestBucketScanRequiresBucketer(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	tx := begin(t, c)
	if _, err := tx.BucketScan("a", "b", 0); err == nil {
		t.Fatal("BucketScan without a bucketer must fail")
	}
}
