package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/percolator"
	"repro/internal/ssi"
	"repro/internal/tso"
	"repro/internal/txn"
	"repro/internal/workload"
)

// ablationEngines compares the abort behaviour of the four concurrency
// controls — SI, WSI, commit-time SSI, and lock-based Percolator — under an
// identical contended workload. Concurrency is generated deterministically:
// a pool of `workers` transactions is kept open at all times, and each step
// opens a new transaction and commits a randomly chosen pooled one, so
// every transaction's lifetime overlaps `workers-1` others regardless of
// GOMAXPROCS (the paper's clients achieve the same overlap with real
// parallelism).
func ablationEngines(workers, totalTxns int, rows int64) (string, error) {
	type outcome struct {
		name            string
		commits, aborts int64
		note            string
	}
	var results []outcome

	// Arbiter-style engines share one driver.
	type arbiter interface {
		Begin() (uint64, error)
		Commit(oracle.CommitRequest) (oracle.CommitResult, error)
	}
	runArbiter := func(name, note string, a arbiter) error {
		rng := rand.New(rand.NewSource(42))
		mix := workload.NewMix(workload.ComplexWorkload(), workload.NewZipfian(rows))
		type pending struct{ req oracle.CommitRequest }
		var pool []pending
		var commits, aborts int64
		commitOne := func() error {
			k := rng.Intn(len(pool))
			p := pool[k]
			pool = append(pool[:k], pool[k+1:]...)
			res, err := a.Commit(p.req)
			if err != nil {
				return err
			}
			if res.Committed {
				commits++
			} else {
				aborts++
			}
			return nil
		}
		for i := 0; i < totalTxns; i++ {
			ts, err := a.Begin()
			if err != nil {
				return err
			}
			tx := mix.Next(rng)
			req := oracle.CommitRequest{StartTS: ts}
			for _, r := range tx.WriteRows() {
				req.WriteSet = append(req.WriteSet, oracle.HashRow(workload.Key(r)))
			}
			for _, r := range tx.ReadRows() {
				req.ReadSet = append(req.ReadSet, oracle.HashRow(workload.Key(r)))
			}
			pool = append(pool, pending{req: req})
			if len(pool) > workers {
				if err := commitOne(); err != nil {
					return err
				}
			}
		}
		for len(pool) > 0 {
			if err := commitOne(); err != nil {
				return err
			}
		}
		results = append(results, outcome{name: name, commits: commits, aborts: aborts, note: note})
		return nil
	}

	siOracle, err := oracle.New(oracle.Config{Engine: oracle.SI, TSO: tso.New(0, nil)})
	if err != nil {
		return "", err
	}
	if err := runArbiter("SI", "write-write conflicts only", siOracle); err != nil {
		return "", err
	}
	wsiOracle, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		return "", err
	}
	if err := runArbiter("WSI", "serializable; read-write conflicts", wsiOracle); err != nil {
		return "", err
	}
	if err := runArbiter("SSI", "serializable; ww + pivot aborts", ssi.New(tso.New(0, nil), 0)); err != nil {
		return "", err
	}

	// Percolator: the full lock-based 2PC path over a real store, same
	// pooled-overlap discipline (operations buffer client-side, so the
	// conflict window is prewrite-to-commit).
	{
		store := kvstore.New(kvstore.Config{})
		pc := percolator.NewClient(store, tso.New(0, nil), percolator.DefaultConfig())
		rng := rand.New(rand.NewSource(42))
		mix := workload.NewMix(workload.ComplexWorkload(), workload.NewZipfian(rows))
		var pool []*percolator.Txn
		var commits, aborts int64
		commitOne := func() {
			k := rng.Intn(len(pool))
			tx := pool[k]
			pool = append(pool[:k], pool[k+1:]...)
			switch err := tx.Commit(); {
			case err == nil:
				commits++
			case errors.Is(err, percolator.ErrConflict):
				aborts++
			}
		}
		for i := 0; i < totalTxns; i++ {
			tx, err := pc.Begin()
			if err != nil {
				return "", err
			}
			w := mix.Next(rng)
			bad := false
			for _, op := range w.Ops {
				key := workload.Key(op.Row)
				if op.Kind == workload.OpWrite {
					err = tx.Put(key, []byte("v"))
				} else {
					_, _, err = tx.Get(key)
				}
				if err != nil {
					bad = true
					break
				}
			}
			if bad {
				tx.Abort()
				aborts++
				continue
			}
			pool = append(pool, tx)
			if len(pool) > workers {
				commitOne()
			}
		}
		for len(pool) > 0 {
			commitOne()
		}
		results = append(results, outcome{name: "Percolator", commits: commits, aborts: aborts,
			note: "lock-based SI; aborts include lock collisions"})
	}

	var b strings.Builder
	b.WriteString(header("Ablation A — abort behaviour of SI / WSI / SSI / Percolator under zipfian contention"))
	fmt.Fprintf(&b, "workload: %d concurrent complex txns (pool), %d total, zipfian over %d rows\n\n", workers, totalTxns, rows)
	fmt.Fprintf(&b, "%-12s %10s %10s %12s  %s\n", "engine", "commits", "aborts", "abort-rate", "notes")
	for _, r := range results {
		rate := 0.0
		if r.commits+r.aborts > 0 {
			rate = float64(r.aborts) / float64(r.commits+r.aborts)
		}
		fmt.Fprintf(&b, "%-12s %10d %10d %11.1f%%  %s\n", r.name, r.commits, r.aborts, rate*100, r.note)
	}
	return b.String(), nil
}

// ablationShards measures commit throughput of the single critical section
// (the paper's implementation, §6.3) against the proposed sharded variant.
func ablationShards(workers int, duration time.Duration) (string, error) {
	run := func(shards int) (float64, error) {
		clock := tso.New(0, nil)
		so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock, Shards: shards})
		if err != nil {
			return 0, err
		}
		var total int64
		var mu sync.Mutex
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				n := int64(0)
				for {
					select {
					case <-stop:
						mu.Lock()
						total += n
						mu.Unlock()
						return
					default:
					}
					ts, err := so.Begin()
					if err != nil {
						return
					}
					req := oracle.CommitRequest{StartTS: ts}
					for j := 0; j < 10; j++ {
						req.WriteSet = append(req.WriteSet, oracle.RowID(rng.Int63n(1_000_000)))
						req.ReadSet = append(req.ReadSet, oracle.RowID(rng.Int63n(1_000_000)))
					}
					if _, err := so.Commit(req); err != nil {
						return
					}
					n++
				}
			}(g)
		}
		time.Sleep(duration)
		close(stop)
		wg.Wait()
		return float64(total) / duration.Seconds(), nil
	}
	var b strings.Builder
	b.WriteString(header("Ablation B — single vs sharded status-oracle critical section (§6.3 future work)"))
	fmt.Fprintf(&b, "%-8s %16s\n", "shards", "commit TPS")
	for _, shards := range []int{1, 2, 4, 8, 16} {
		tps, err := run(shards)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-8d %16.0f\n", shards, tps)
	}
	return b.String(), nil
}

// countingArbiter wraps an arbiter and counts status lookups — whether they
// arrive as single Query calls or inside a QueryBatch — the cost that the
// commit-info strategies (§2.2) are designed to avoid.
type countingArbiter struct {
	*oracle.StatusOracle
	mu      sync.Mutex
	queries int64
}

func (c *countingArbiter) Query(startTS uint64) oracle.TxnStatus {
	c.mu.Lock()
	c.queries++
	c.mu.Unlock()
	return c.StatusOracle.Query(startTS)
}

func (c *countingArbiter) QueryBatch(startTSs []uint64) []oracle.TxnStatus {
	c.mu.Lock()
	c.queries += int64(len(startTSs))
	c.mu.Unlock()
	return c.StatusOracle.QueryBatch(startTSs)
}

// ablationCommitInfo compares the two §2.2 commit-timestamp resolution
// strategies by the number of status-oracle queries a read-heavy workload
// generates.
func ablationCommitInfo(txns int) (string, error) {
	run := func(mode txn.CommitInfoMode) (queries int64, err error) {
		clock := tso.New(0, nil)
		so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
		if err != nil {
			return 0, err
		}
		ca := &countingArbiter{StatusOracle: so}
		store := kvstore.New(kvstore.Config{})
		client, err := txn.NewClient(store, ca, txn.Config{Mode: mode})
		if err != nil {
			return 0, err
		}
		defer client.Close()
		rng := rand.New(rand.NewSource(7))
		// Interleave writers and readers over a hot key set so readers
		// constantly meet fresh versions.
		for i := 0; i < txns; i++ {
			w, err := client.Begin()
			if err != nil {
				return 0, err
			}
			key := workload.Key(rng.Int63n(20))
			if err := w.Put(key, []byte("v")); err != nil {
				return 0, err
			}
			if err := w.Commit(); err != nil && !errors.Is(err, txn.ErrConflict) {
				return 0, err
			}
			r, err := client.Begin()
			if err != nil {
				return 0, err
			}
			for j := 0; j < 5; j++ {
				if _, _, err := r.Get(workload.Key(rng.Int63n(20))); err != nil {
					return 0, err
				}
			}
			if err := r.Commit(); err != nil {
				return 0, err
			}
		}
		ca.mu.Lock()
		defer ca.mu.Unlock()
		return ca.queries, nil
	}
	var b strings.Builder
	b.WriteString(header("Ablation C — commit-timestamp resolution strategies (§2.2)"))
	fmt.Fprintf(&b, "%-12s %20s\n", "mode", "oracle queries")
	for _, mode := range []txn.CommitInfoMode{txn.ModeQuery, txn.ModeWriteBack} {
		q, err := run(mode)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%-12s %20d\n", mode, q)
	}
	fmt.Fprintf(&b, "\n(workload: %d writer+reader pairs over 20 hot rows; lower is better)\n", txns)
	return b.String(), nil
}

// ablationMaxRows sweeps Algorithm 3's NR bound and measures the
// false-abort rate suffered by transactions of a fixed "staleness" (number
// of commits that happen during their lifetime).
func ablationMaxRows(staleness, trials int) (string, error) {
	run := func(maxRows int) (falseAborts int, err error) {
		clock := tso.New(0, nil)
		so, err := oracle.New(oracle.Config{Engine: oracle.SI, MaxRows: maxRows, TSO: clock})
		if err != nil {
			return 0, err
		}
		rng := rand.New(rand.NewSource(3))
		next := int64(0)
		for i := 0; i < trials; i++ {
			slow, err := so.Begin()
			if err != nil {
				return 0, err
			}
			for j := 0; j < staleness; j++ {
				ts, err := so.Begin()
				if err != nil {
					return 0, err
				}
				if _, err := so.Commit(oracle.CommitRequest{
					StartTS:  ts,
					WriteSet: []oracle.RowID{oracle.RowID(next)},
				}); err != nil {
					return 0, err
				}
				next++
			}
			// The slow transaction writes a private row: any abort
			// is a false abort (no true conflict exists).
			res, err := so.Commit(oracle.CommitRequest{
				StartTS:  slow,
				WriteSet: []oracle.RowID{oracle.RowID(1_000_000_000 + rng.Int63n(1<<30))},
			})
			if err != nil {
				return 0, err
			}
			if !res.Committed {
				falseAborts++
			}
		}
		return falseAborts, nil
	}
	var b strings.Builder
	b.WriteString(header("Ablation D — Algorithm 3 memory bound (NR) vs false aborts"))
	fmt.Fprintf(&b, "slow txns live through %d commits; %d trials per point\n\n", staleness, trials)
	fmt.Fprintf(&b, "%-12s %16s\n", "NR (rows)", "false aborts")
	for _, nr := range []int{16, 64, 256, 1024, 4096, 0} {
		fa, err := run(nr)
		if err != nil {
			return "", err
		}
		label := fmt.Sprint(nr)
		if nr == 0 {
			label = "unbounded"
		}
		fmt.Fprintf(&b, "%-12s %11d/%d\n", label, fa, trials)
	}
	return b.String(), nil
}

func init() {
	register(Experiment{
		Name:  "ablation-engines",
		Title: "Ablation A: abort behaviour of SI/WSI/SSI/Percolator",
		Run: func(quick bool) (string, error) {
			if quick {
				return ablationEngines(8, 800, 200)
			}
			return ablationEngines(16, 8000, 4000)
		},
	})
	register(Experiment{
		Name:  "ablation-shards",
		Title: "Ablation B: single vs sharded critical section",
		Run: func(quick bool) (string, error) {
			d := time.Second
			if quick {
				d = 200 * time.Millisecond
			}
			return ablationShards(8, d)
		},
	})
	register(Experiment{
		Name:  "ablation-commitinfo",
		Title: "Ablation C: commit-info resolution strategies",
		Run: func(quick bool) (string, error) {
			if quick {
				return ablationCommitInfo(100)
			}
			return ablationCommitInfo(1000)
		},
	})
	register(Experiment{
		Name:  "ablation-maxrows",
		Title: "Ablation D: bounded lastCommit vs false aborts",
		Run: func(quick bool) (string, error) {
			if quick {
				return ablationMaxRows(200, 20)
			}
			return ablationMaxRows(2000, 50)
		},
	})
}
