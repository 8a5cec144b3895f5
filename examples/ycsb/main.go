// YCSB: drives the §6.1 transactional YCSB workload — the mixed workload of
// 50% read-only and 50% complex transactions over uniform, zipfian or
// zipfianLatest row selection — against the real in-process stack, printing
// live throughput, latency percentiles and the abort-rate split that
// Figures 6–10 measure at cluster scale.
//
// Usage:
//
//	go run ./examples/ycsb -engine wsi -dist zipfian -workers 8 -duration 3s
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/txn"
	"repro/internal/workload"
)

func main() {
	var (
		engineName = flag.String("engine", "wsi", "wsi or si")
		distName   = flag.String("dist", "zipfian", "uniform, zipfian or latest")
		workers    = flag.Int("workers", 8, "concurrent client goroutines")
		duration   = flag.Duration("duration", 3*time.Second, "measurement duration")
		rows       = flag.Int64("rows", 100_000, "row space size")
	)
	flag.Parse()

	engine := core.WSI
	if *engineName == "si" {
		engine = core.SI
	}
	sys, err := core.New(core.Options{Engine: engine})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	newGen := func() workload.Generator {
		switch *distName {
		case "uniform":
			return workload.NewUniform(*rows)
		case "latest":
			return workload.NewLatest(*rows - 1)
		default:
			return workload.NewScrambledZipfian(*rows)
		}
	}

	var (
		mu        sync.Mutex
		latencies metrics.Histogram
		commits   int64
		aborts    int64
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			mix := workload.NewMix(workload.MixedWorkload(), newGen())
			for {
				select {
				case <-stop:
					return
				default:
				}
				start := time.Now()
				err := runTxn(sys, mix.Next(rng))
				mu.Lock()
				if err == nil {
					commits++
					latencies.Record(time.Since(start).Microseconds())
				} else if errors.Is(err, txn.ErrConflict) {
					aborts++
				} else {
					mu.Unlock()
					log.Fatalf("worker %d: %v", w, err)
				}
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(*duration)
	close(stop)
	wg.Wait()

	total := commits + aborts
	fmt.Printf("engine=%v dist=%s workers=%d duration=%v rows=%d\n",
		engine, *distName, *workers, *duration, *rows)
	fmt.Printf("throughput:  %.0f TPS (%d committed)\n", float64(commits)/duration.Seconds(), commits)
	fmt.Printf("abort rate:  %.2f%% (%d of %d)\n", pct(aborts, total), aborts, total)
	fmt.Printf("latency us:  p50=%d p95=%d p99=%d max=%d\n",
		latencies.Quantile(0.50), latencies.Quantile(0.95), latencies.Quantile(0.99), latencies.Max())
	st := sys.Stats()
	fmt.Printf("oracle:      commits=%d read-only=%d conflict-aborts=%d\n",
		st.Commits, st.ReadOnlyCommits, st.ConflictAborts)
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// runTxn executes one generated transaction against the store.
func runTxn(sys *core.System, w workload.Txn) error {
	tx, err := sys.Begin()
	if err != nil {
		return err
	}
	for _, op := range w.Ops {
		key := workload.Key(op.Row)
		if op.Kind == workload.OpWrite {
			if err := tx.Put(key, []byte(fmt.Sprintf("v@%d", tx.StartTS()))); err != nil {
				return err
			}
		} else {
			if _, _, err := tx.Get(key); err != nil {
				return err
			}
		}
	}
	return tx.Commit()
}
