package oracle_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/oracle"
	"repro/internal/tso"
)

// BenchmarkCommitBatch measures per-transaction commit cost through
// CommitBatch across batch sizes (batch-1 is the serial Commit wrapper's
// cost); the amortization of the critical section and timestamp allocation
// is the headroom behind the batched network and client pipelines. Each
// benchmark op is one transaction, so ns/op is directly comparable across
// sizes. The harness reuses its request and result buffers and the oracle
// is bounded (so lastCommit reaches its working-set size), making
// -benchmem report the commit path's own steady-state allocation: zero.
func BenchmarkCommitBatch(b *testing.B) {
	for _, size := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			clock := tso.New(0, nil)
			so, err := oracle.New(oracle.Config{
				Engine:     oracle.WSI,
				MaxRows:    1 << 16,
				MaxCommits: 1 << 16,
				TSO:        clock,
			})
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			reqs := make([]oracle.CommitRequest, size)
			for i := range reqs {
				reqs[i].WriteSet = make([]oracle.RowID, 10)
				reqs[i].ReadSet = make([]oracle.RowID, 10)
			}
			results := make([]oracle.CommitResult, size)
			b.ResetTimer()
			for done := 0; done < b.N; done += size {
				n := size
				if b.N-done < n {
					n = b.N - done
				}
				for i := 0; i < n; i++ {
					ts, err := so.Begin()
					if err != nil {
						b.Fatal(err)
					}
					reqs[i].StartTS = ts
					for j := 0; j < 10; j++ {
						reqs[i].WriteSet[j] = oracle.RowID(rng.Int63n(20_000_000))
						reqs[i].ReadSet[j] = oracle.RowID(rng.Int63n(20_000_000))
					}
				}
				if _, err := so.CommitBatchInto(reqs[:n], results[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCommit is the serial one-request Commit the in-process
// transaction client calls: a Begin and a commit of 10 written and 10 read
// rows per op, on the same bounded oracle as BenchmarkCommitBatch. The
// decision lands in Commit's one-element stack array, so -benchmem reports
// zero.
func BenchmarkCommit(b *testing.B) {
	so, err := oracle.New(oracle.Config{
		Engine:     oracle.WSI,
		MaxRows:    1 << 16,
		MaxCommits: 1 << 16,
		TSO:        tso.New(0, nil),
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	req := oracle.CommitRequest{
		WriteSet: make([]oracle.RowID, 10),
		ReadSet:  make([]oracle.RowID, 10),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ts, err := so.Begin()
		if err != nil {
			b.Fatal(err)
		}
		req.StartTS = ts
		for j := range req.WriteSet {
			req.WriteSet[j] = oracle.RowID(rng.Int63n(20_000_000))
			req.ReadSet[j] = oracle.RowID(rng.Int63n(20_000_000))
		}
		if _, err := so.Commit(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryBatch measures per-lookup status-resolution cost through
// QueryBatch across batch sizes (batch-1 is the serial Query cost); the
// amortization of commit-table lock passes is the headroom behind the
// batched read path. Each benchmark op is one lookup, so ns/op is directly
// comparable across sizes. QueryBatchInto reuses the harness's status
// buffer, so -benchmem reports the lookup path's own allocation: zero.
func BenchmarkQueryBatch(b *testing.B) {
	for _, size := range []int{1, 8, 64, 256} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			clock := tso.New(0, nil)
			so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
			if err != nil {
				b.Fatal(err)
			}
			// Seed a populated commit table so lookups hit real entries.
			const seeded = 4096
			starts := make([]uint64, seeded)
			reqs := make([]oracle.CommitRequest, seeded)
			for i := range reqs {
				ts, err := so.Begin()
				if err != nil {
					b.Fatal(err)
				}
				starts[i] = ts
				reqs[i] = oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(i)}}
			}
			if _, err := so.CommitBatch(reqs); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			tss := make([]uint64, size)
			sts := make([]oracle.TxnStatus, size)
			b.ResetTimer()
			for done := 0; done < b.N; done += size {
				n := size
				if b.N-done < n {
					n = b.N - done
				}
				for i := 0; i < n; i++ {
					tss[i] = starts[rng.Intn(seeded)]
				}
				if n == 1 {
					so.Query(tss[0])
				} else {
					so.QueryBatchInto(tss[:n], sts[:0])
				}
			}
		})
	}
}
