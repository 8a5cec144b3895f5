package partition

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/oracle"
)

// TestPartitionChaos hammers a 4-partition coordinator with concurrent
// cross-partition two-phase commits, single-partition one-shot commits,
// explicit aborts and merged status queries, on bounded commit tables so
// eviction churns underneath — run with -race. It asserts the atomic
// visibility contract of the partitioned oracle:
//
//   - no snapshot ever observes a half-decided transaction: once a commit
//     is acknowledged, the coordinator's merged query answers committed
//     with the acknowledged timestamp (or unknown after eviction — never
//     pending, never aborted);
//   - a snapshot issued after an acknowledged commit always sits above the
//     commit timestamp (the clock drew it, and the verdict was published,
//     before the ack), so the commit is inside it;
//   - no prepared-row locks leak.
func TestPartitionChaos(t *testing.T) {
	lc, err := NewLocal(LocalConfig{
		Partitions: 4,
		Engine:     oracle.WSI,
		MaxRows:    64,
		MaxCommits: 128,
	})
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	co := lc.Coordinator

	const (
		writers = 4
		readers = 3
		perG    = 250
		rows    = 48
	)
	type acked struct {
		startTS, commitTS uint64
	}
	var (
		mu    sync.Mutex
		log   []acked
		stop  atomic.Bool
		fails atomic.Int64
	)
	record := func(a acked) {
		mu.Lock()
		log = append(log, a)
		mu.Unlock()
	}
	sample := func(rng *rand.Rand) (acked, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(log) == 0 {
			return acked{}, false
		}
		return log[rng.Intn(len(log))], true
	}

	var writerWG, readerWG sync.WaitGroup
	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(seed int64) {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				ts, err := co.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				req := oracle.CommitRequest{StartTS: ts}
				if rng.Intn(10) == 0 {
					// Explicit abort path.
					if err := co.Abort(ts); err != nil {
						t.Errorf("abort: %v", err)
						return
					}
					continue
				}
				n := 1 + rng.Intn(4)
				for k := 0; k < n; k++ {
					req.WriteSet = append(req.WriteSet, oracle.RowID(rng.Intn(rows)))
				}
				for k := rng.Intn(3); k > 0; k-- {
					req.ReadSet = append(req.ReadSet, oracle.RowID(rng.Intn(rows)))
				}
				res, err := co.Commit(req)
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if res.Committed {
					record(acked{startTS: ts, commitTS: res.CommitTS})
				} else {
					fails.Add(1)
				}
			}
		}(int64(g) + 1)
	}
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(seed int64) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				// A fresh snapshot, then the acked transactions it must
				// observe whole.
				snap, err := co.Begin()
				if err != nil {
					t.Errorf("reader begin: %v", err)
					return
				}
				var batch []acked
				var startTSs []uint64
				for k := 0; k < 8; k++ {
					if a, ok := sample(rng); ok {
						batch = append(batch, a)
						startTSs = append(startTSs, a.startTS)
					}
				}
				if len(batch) == 0 {
					continue
				}
				statuses := co.QueryBatch(startTSs)
				for k, a := range batch {
					st := statuses[k]
					switch st.Status {
					case oracle.StatusCommitted:
						if st.CommitTS != a.commitTS {
							t.Errorf("txn %d: merged commit ts %d, acked %d", a.startTS, st.CommitTS, a.commitTS)
							return
						}
					case oracle.StatusUnknown:
						// Evicted from the bounded commit table; the
						// write-back rule covers it.
					default:
						t.Errorf("snapshot %d observes acked txn %d (ct %d) as %v — half-decided visibility",
							snap, a.startTS, a.commitTS, st.Status)
						return
					}
				}
			}
		}(int64(g) + 100)
	}

	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()

	if len(log) == 0 {
		t.Fatalf("no transactions committed")
	}
	for p := 0; p < 4; p++ {
		if n := lc.Partitions[p].PreparedCount(); n != 0 {
			t.Fatalf("partition %d leaks %d prepared transactions", p, n)
		}
	}
	st := co.Stats()
	if st.CrossTxns == 0 {
		t.Fatalf("chaos run exercised no cross-partition transactions: %+v", st)
	}
	t.Logf("chaos: %d acked, %d conflict aborts, cross ratio %.2f", len(log), fails.Load(), st.CrossRatio())
}
