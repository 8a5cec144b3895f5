package txn

import (
	"fmt"
	"math/rand"
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

// BenchmarkPut rewrites one row inside one transaction: the one allocation
// is the encoded value, which the store keeps.
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

// BenchmarkTxnCommit is one whole in-process transaction per op — Begin, its
// operations, Commit — on a WSI oracle over 4 096 committed rows, the rows
// drawn uniformly from a seeded source:
//   - blind-4 puts 4 rows (write-durable's shape);
//   - complex alternates 5 Gets and 5 Puts (embedded-complex's).
//
// Allocations per op are everything the transaction costs the client, the
// store and the oracle, the rows' growth included.
func BenchmarkTxnCommit(b *testing.B) {
	for _, shape := range []struct {
		name        string
		ops, writes int // writes: every how many ops is a Put
	}{{"blind-4", 4, 1}, {"complex", 10, 2}} {
		b.Run(shape.name, func(b *testing.B) {
			c, keys := benchStack(b, 4096, 1)
			rng := rand.New(rand.NewSource(1))
			value := []byte("8 bytes.")
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				tx, err := c.Begin()
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < shape.ops; i++ {
					key := keys[rng.Intn(len(keys))]
					if i%shape.writes == shape.writes-1 {
						err = tx.Put(key, value)
					} else {
						_, _, err = tx.Get(key)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
