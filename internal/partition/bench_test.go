package partition

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/oracle"
	"repro/internal/workload"
)

// BenchmarkPartitionedCommit measures the coordinator's commit path per
// transaction (no WAL — pure arbitration) across partition counts and
// cross-partition fractions. The interesting comparison is the per-
// transaction overhead of routing + the two-phase path vs the plain
// oracle's CommitBatch, not parallel speedup (b.N runs on one goroutine).
func BenchmarkPartitionedCommit(b *testing.B) {
	const rows = 1 << 20
	for _, parts := range []int{1, 4} {
		for _, cross := range []float64{0, 0.1} {
			if parts == 1 && cross > 0 {
				continue
			}
			name := fmt.Sprintf("parts=%d/cross=%.0f%%", parts, cross*100)
			b.Run(name, func(b *testing.B) {
				lc, err := NewLocal(LocalConfig{
					Partitions: parts,
					Engine:     oracle.WSI,
					Router:     NewEvenRangeRouter(parts, rows),
				})
				if err != nil {
					b.Fatal(err)
				}
				co := lc.Coordinator
				rng := rand.New(rand.NewSource(1))
				mix := workload.NewCrossMix(workload.ComplexWorkload(), parts, cross, rows)
				const batch = 32
				reqs := make([]oracle.CommitRequest, batch)
				b.ResetTimer()
				for n := 0; n < b.N; n += batch {
					for i := range reqs {
						ts, err := co.Begin()
						if err != nil {
							b.Fatal(err)
						}
						tx := mix.Next(rng)
						reqs[i] = oracle.CommitRequest{StartTS: ts}
						for _, r := range tx.WriteRows() {
							reqs[i].WriteSet = append(reqs[i].WriteSet, oracle.RowID(r))
						}
						for _, r := range tx.ReadRows() {
							reqs[i].ReadSet = append(reqs[i].ReadSet, oracle.RowID(r))
						}
					}
					if _, err := co.CommitBatch(reqs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCoordinatorCommit is the cross-partition workload's shape
// without the logs: parallel callers, each drawing a Begin and then
// committing one request (Coordinator.Commit) through a two-partition
// NewLocal cluster, 10% of the write transactions spanning both
// partitions. The requests are generated before the timer starts, so
// allocs/op is the coordinator's and the oracles' alone.
func BenchmarkCoordinatorCommit(b *testing.B) {
	const rows = 1 << 20
	lc, err := NewLocal(LocalConfig{
		Partitions: 2,
		Engine:     oracle.WSI,
		Router:     NewEvenRangeRouter(2, rows),
	})
	if err != nil {
		b.Fatal(err)
	}
	co := lc.Coordinator
	rng := rand.New(rand.NewSource(1))
	mix := workload.NewCrossMix(workload.ComplexWorkload(), 2, 0.1, rows)
	reqs := make([]oracle.CommitRequest, 4096)
	for i := range reqs {
		tx := mix.Next(rng)
		for _, r := range tx.WriteRows() {
			reqs[i].WriteSet = append(reqs[i].WriteSet, oracle.RowID(r))
		}
		for _, r := range tx.ReadRows() {
			reqs[i].ReadSet = append(reqs[i].ReadSet, oracle.RowID(r))
		}
	}
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := reqs[next.Add(1)%int64(len(reqs))]
			ts, err := co.Begin()
			if err != nil {
				b.Error(err)
				return
			}
			req.StartTS = ts
			if _, err := co.Commit(req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPrepareDecide measures one prepare+decide round on a single
// partition — the partition-side cost a cross-partition transaction adds.
func BenchmarkPrepareDecide(b *testing.B) {
	lc, err := NewLocal(LocalConfig{Partitions: 1, Engine: oracle.WSI})
	if err != nil {
		b.Fatal(err)
	}
	so := lc.Partitions[0]
	clock := lc.TSO
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		ts := clock.MustNext()
		ct := clock.MustNext()
		votes, err := so.PrepareBatch([]oracle.PrepareRequest{{
			StartTS:  ts,
			WriteSet: []oracle.RowID{oracle.RowID(n), oracle.RowID(n + 1)},
			ReadSet:  []oracle.RowID{oracle.RowID(n + 2)},
		}})
		if err != nil || !votes[0] {
			b.Fatalf("prepare: votes=%v err=%v", votes, err)
		}
		if err := so.DecideBatch([]oracle.Decision{{StartTS: ts, CommitTS: ct, Commit: true}}); err != nil {
			b.Fatal(err)
		}
	}
}
