package txn

import (
	"fmt"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/tso"
)

// BenchmarkGetMulti measures the batched read path at steady state: 20 keys
// of 8 committed versions each, read by one transaction again and again, so
// every pooled buffer is warm and -benchmem shows only what a read hands to
// its caller (values, flags) and what the oracle's answer costs.
func BenchmarkGetMulti(b *testing.B) {
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		b.Fatal(err)
	}
	c, err := NewClient(kvstore.New(kvstore.Config{}), so, Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = fmt.Sprintf("row%02d", i)
	}
	for v := 0; v < 8; v++ {
		tx, err := c.Begin()
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if err := tx.Put(k, []byte("8 bytes.")); err != nil {
				b.Fatal(err)
			}
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
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
