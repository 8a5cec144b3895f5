package txn

import (
	"fmt"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/tso"
)

// benchStack is a client over an in-process WSI oracle whose store holds
// keys rows of versions committed versions each ("8 bytes." values).
func benchStack(b *testing.B, keys, versions int) (*Client, []string) {
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewClient(kvstore.New(kvstore.Config{}), so, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("row%02d", i)
	}
	for v := 0; v < versions; v++ {
		tx, err := c.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range names {
			if err := tx.Put(k, []byte("8 bytes.")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	return c, names
}

// BenchmarkGetMulti measures the batched read path at steady state: 20 keys
// of 8 committed versions each, read by one transaction again and again, so
// every pooled buffer is warm, every version is stamped by the first
// iteration, and -benchmem shows only what a read hands to its caller
// (values, flags).
func BenchmarkGetMulti(b *testing.B) {
	c, keys := benchStack(b, 20, 8)
	tx, err := c.Begin()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, _, err := tx.GetMulti(keys); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGet is the single-key read of a 4-version row, warm: its
// candidates fit Get's stack buffers, so the one allocation is the value copy the
// caller keeps.
func BenchmarkGet(b *testing.B) {
	c, keys := benchStack(b, 1, 4)
	tx, err := c.Begin()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, _, err := tx.Get(keys[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPut rewrites one row inside one transaction: the encoded value
// (shared by the transaction's write buffer and the store call) and the
// store's own copy.
func BenchmarkPut(b *testing.B) {
	c, keys := benchStack(b, 1, 1)
	tx, err := c.Begin()
	if err != nil {
		b.Fatal(err)
	}
	value := []byte("8 bytes.")
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := tx.Put(keys[0], value); err != nil {
			b.Fatal(err)
		}
	}
}
