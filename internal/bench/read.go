package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netsrv"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/workload"
)

// ReadBatchSizes is the status-lookup sweep the read experiment runs; size
// 1 is the unbatched baseline (one opQuery frame per lookup). cmd/bench
// -readmax trims it.
var ReadBatchSizes = []int{1, 2, 4, 8, 16, 32, 64, 128}

// seedReadOracle builds an in-memory status oracle whose commit table holds
// n transactions with a realistic status mix — mostly committed, some
// explicitly aborted, some forever pending — and returns, per row i, the
// start timestamp of row i's writer. The read experiment's lookup stream is
// exactly the traffic a snapshot reader generates: resolve the writer of
// every version it meets (§2.2).
func seedReadOracle(n int) (*oracle.StatusOracle, []uint64, error) {
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		return nil, nil, err
	}
	starts := make([]uint64, n)
	reqs := make([]oracle.CommitRequest, 0, 512)
	flush := func() error {
		if len(reqs) == 0 {
			return nil
		}
		_, err := so.CommitBatch(reqs)
		reqs = reqs[:0]
		return err
	}
	for i := 0; i < n; i++ {
		ts, err := so.Begin()
		if err != nil {
			return nil, nil, err
		}
		starts[i] = ts
		switch {
		case i%31 == 7: // explicit abort: readers skip the version
			if err := so.Abort(ts); err != nil {
				return nil, nil, err
			}
		case i%43 == 11: // writer never finishes: stays pending
		default:
			reqs = append(reqs, oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(i)}})
			if len(reqs) == cap(reqs) {
				if err := flush(); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return so, starts, flush()
}

// readPoint measures status-resolution throughput over netsrv for one batch
// size: `workers` load generators each draw read rows from the read-heavy
// mix, map them to writer start timestamps, and resolve them `batchSize`
// lookups at a time — through per-lookup opQuery frames at size 1, through
// one opQueryBatch frame otherwise. The returned rate counts lookups, not
// frames.
func readPoint(addr string, starts []uint64, workers, batchSize int, measure time.Duration) (float64, error) {
	var (
		stop      atomic.Bool
		measuring atomic.Bool
		completed atomic.Int64
	)
	var wg sync.WaitGroup
	conns := make([]*netsrv.Client, workers)
	for g := range conns {
		conn, err := netsrv.Dial(addr)
		if err != nil {
			return 0, err
		}
		defer conn.Close()
		conns[g] = conn
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64, conn *netsrv.Client) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			mix := workload.NewMix(workload.ReadHeavyWorkload(), workload.NewUniform(int64(len(starts))))
			var pending []uint64
			for !stop.Load() {
				for len(pending) < batchSize {
					tx := mix.Next(rng)
					for _, row := range tx.ReadRows() {
						pending = append(pending, starts[row])
					}
				}
				chunk := pending[:batchSize]
				if batchSize == 1 {
					conn.Query(chunk[0])
				} else {
					conn.QueryBatch(chunk)
				}
				pending = append(pending[:0], pending[batchSize:]...)
				if measuring.Load() {
					completed.Add(int64(batchSize))
				}
			}
		}(int64(g)*6271+int64(batchSize), conns[g])
	}
	time.Sleep(measure / 3) // warm up
	measuring.Store(true)
	time.Sleep(measure)
	measuring.Store(false)
	stop.Store(true)
	done := completed.Load()
	wg.Wait()
	if done == 0 {
		return 0, fmt.Errorf("read: no completed lookups")
	}
	return float64(done) / measure.Seconds(), nil
}

// pipelinedPoint drives per-lookup opQuery frames — the unbatched client
// path — with `outstanding` concurrent lookups per connection: what
// pipelining alone buys a client that does not batch its lookups.
func pipelinedPoint(addr string, starts []uint64, workers, outstanding int, measure time.Duration) (float64, error) {
	var (
		stop      atomic.Bool
		measuring atomic.Bool
		completed atomic.Int64
	)
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		conn, err := netsrv.Dial(addr)
		if err != nil {
			return 0, err
		}
		defer conn.Close()
		for o := 0; o < outstanding; o++ {
			wg.Add(1)
			go func(seed int64, conn *netsrv.Client) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				for !stop.Load() {
					conn.Query(starts[rng.Intn(len(starts))])
					if measuring.Load() {
						completed.Add(1)
					}
				}
			}(int64(c)*1000+int64(o), conn)
		}
	}
	time.Sleep(measure / 3)
	measuring.Store(true)
	time.Sleep(measure)
	measuring.Store(false)
	stop.Store(true)
	done := completed.Load()
	wg.Wait()
	if done == 0 {
		return 0, fmt.Errorf("read: no pipelined lookups")
	}
	return float64(done) / measure.Seconds(), nil
}

func init() {
	register(Experiment{
		Name:  "read",
		Title: "Batched snapshot-read pipeline: status-resolution throughput vs lookup batch size, batched QueryBatch vs unbatched Query",
		Run: func(quick bool) (string, error) {
			sizes := ReadBatchSizes
			workers := 8
			seeds := 20_000
			measure := 1000 * time.Millisecond
			if quick {
				// Thin the sweep but respect -readmax trimming.
				sizes = nil
				for _, s := range ReadBatchSizes {
					if s == 1 || s == 8 || s == 64 {
						sizes = append(sizes, s)
					}
				}
				if len(sizes) == 0 {
					sizes = ReadBatchSizes
				}
				workers = 4
				seeds = 4_000
				measure = 300 * time.Millisecond
			}

			so, starts, err := seedReadOracle(seeds)
			if err != nil {
				return "", err
			}
			srv := netsrv.NewServer(so)
			srv.Logf = nil
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				return "", err
			}
			defer srv.Close()

			var b strings.Builder
			b.WriteString(header("Batched snapshot-read pipeline — status resolution over netsrv, read-heavy mix"))
			fmt.Fprintf(&b, "%-8s %-10s %16s %10s\n", "batch", "path", "lookups/s", "speedup")
			var baseline float64
			for _, size := range sizes {
				tps, err := readPoint(addr, starts, workers, size, measure)
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
				fmt.Fprintf(&b, "%-8d %-10s %16.0f %9.2fx\n", size, path, tps, speedup)
			}

			// Unbatched opQuery clients that keep many lookups in flight:
			// the server answers each inline (lookups are not coalesced).
			ptps, err := pipelinedPoint(addr, starts, workers, 32, measure)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "\npipelined per-key opQuery (32 outstanding per connection): %.0f lookups/s\n", ptps)

			// Surface the oracle's read counters through the wire stats
			// op, as cmd/bench output.
			statsConn, err := netsrv.Dial(addr)
			if err != nil {
				return "", err
			}
			defer statsConn.Close()
			st, err := statsConn.Stats()
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "\noracle read counters: Queries=%d QueryBatches=%d QueryBatchSizeAvg=%.1f\n",
				st.Queries, st.QueryBatches, st.QueryBatchSizeAvg)
			fmt.Fprintf(&b, "allocation discipline: TableLoadFactor=%.2f Rehashes=%d PooledFrameHits=%d PooledFrameMisses=%d\n",
				st.TableLoadFactor, st.Rehashes, st.PooledFrameHits, st.PooledFrameMisses)
			b.WriteString("\nbatching amortizes frames, syscalls and commit-table lock passes across\n")
			b.WriteString("lookups; speedup is relative to the unbatched (batch=1) per-key opQuery row.\n")
			return b.String(), nil
		},
	})
}
