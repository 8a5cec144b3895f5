package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
	"repro/internal/workload"
)

// BatchSizes is the commit-batch sweep the batch experiment runs; size 1 is
// the unbatched baseline (serial Commit). cmd/bench -batchmax trims it.
var BatchSizes = []int{1, 2, 4, 8, 16, 32, 64, 128}

// batchPoint measures single-node commit throughput for one batch size on
// the durable stack (replicated, group-committing WAL):
// `workers` load generators each keep one full batch of write transactions
// in flight, submitted through CommitBatch — or, at size 1, through the
// unbatched serial Commit path. The returned rate counts transactions, not
// batches, plus the oracle-observed mean batch size.
func batchPoint(engine oracle.Engine, workers, batchSize int, measure time.Duration) (tps, avgBatch float64, err error) {
	ledgers := []wal.Ledger{wal.NewMemLedger(), wal.NewMemLedger(), wal.NewMemLedger()}
	for _, l := range ledgers {
		l.(*wal.MemLedger).Latency = time.Millisecond
	}
	w, err := wal.NewWriter(wal.Config{Quorum: 2}, ledgers...)
	if err != nil {
		return 0, 0, err
	}
	defer w.Close()
	clock := tso.New(100_000, w)
	so, err := oracle.New(oracle.Config{Engine: engine, TSO: clock, WAL: w})
	if err != nil {
		return 0, 0, err
	}

	const rows = 20_000_000
	var (
		stop      atomic.Bool
		measuring atomic.Bool
		completed atomic.Int64
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			mix := workload.NewMix(workload.ComplexWorkload(), workload.NewUniform(rows))
			reqs := make([]oracle.CommitRequest, batchSize)
			for !stop.Load() {
				for i := range reqs {
					ts, err := so.Begin()
					if err != nil {
						return
					}
					tx := mix.Next(rng)
					reqs[i] = oracle.CommitRequest{StartTS: ts}
					for _, r := range tx.WriteRows() {
						reqs[i].WriteSet = append(reqs[i].WriteSet, oracle.RowID(r))
					}
					if engine == oracle.WSI {
						for _, r := range tx.ReadRows() {
							reqs[i].ReadSet = append(reqs[i].ReadSet, oracle.RowID(r))
						}
					}
				}
				if batchSize == 1 {
					if _, err := so.Commit(reqs[0]); err != nil {
						return
					}
				} else if _, err := so.CommitBatch(reqs); err != nil {
					return
				}
				if measuring.Load() {
					completed.Add(int64(batchSize))
				}
			}
		}(int64(g)*7919 + int64(batchSize))
	}
	time.Sleep(measure / 3) // warm up
	measuring.Store(true)
	time.Sleep(measure)
	measuring.Store(false)
	stop.Store(true)
	done := completed.Load()
	wg.Wait()
	if done == 0 {
		return 0, 0, fmt.Errorf("batch: no completed transactions")
	}
	st := so.Stats()
	avgBatch = st.BatchSizeAvg
	return float64(done) / measure.Seconds(), avgBatch, nil
}

func init() {
	register(Experiment{
		Name:  "batch",
		Title: "Batched commit pipeline: throughput vs batch size, batched CommitBatch vs unbatched Commit",
		Run: func(quick bool) (string, error) {
			sizes := BatchSizes
			workers := 8
			measure := 1200 * time.Millisecond
			if quick {
				// Thin the sweep but respect -batchmax trimming.
				sizes = nil
				for _, s := range BatchSizes {
					if s == 1 || s == 8 || s == 64 {
						sizes = append(sizes, s)
					}
				}
				if len(sizes) == 0 {
					sizes = BatchSizes
				}
				workers = 4
				measure = 400 * time.Millisecond
			}
			var b strings.Builder
			b.WriteString(header("Batched commit pipeline — durable oracle, complex workload, 20M rows"))
			fmt.Fprintf(&b, "%-8s %-8s %-10s %14s %12s %10s\n",
				"engine", "batch", "path", "TPS", "avg-batch", "speedup")
			for _, engine := range []oracle.Engine{oracle.WSI, oracle.SI} {
				var baseline float64
				for _, size := range sizes {
					tps, avgBatch, err := batchPoint(engine, workers, size, measure)
					if err != nil {
						return "", err
					}
					path := "batched"
					if size == 1 {
						path = "unbatched"
						baseline = tps
					}
					speedup := 1.0
					if baseline > 0 {
						speedup = tps / baseline
					}
					fmt.Fprintf(&b, "%-8s %-8d %-10s %14.0f %12.1f %9.2fx\n",
						engine, size, path, tps, avgBatch, speedup)
				}
			}
			b.WriteString("\nbatch amortizes shard locks, timestamp allocation and WAL appends;\n")
			b.WriteString("speedup is relative to the unbatched (batch=1) row of the same engine.\n")
			return b.String(), nil
		},
	})
}
