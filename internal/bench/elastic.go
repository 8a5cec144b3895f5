package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/wal"
	"repro/internal/workload"
)

// ElasticJSONPath, when non-empty (cmd/bench -json), receives the elastic
// scale-out experiment's machine-readable result: the per-mode throughput
// sweep, the rebalancer's move trajectory, and the live-split chaos
// verification. CI checks the artifact in as BENCH_scaleout.json.
var ElasticJSONPath string

// The elastic experiment's workload shape: a ScrambledZipfian(0.99) draw
// over contiguous blocks (the paper's "zipfian" skew, YCSB-style) with 10%
// of write transactions forced across a second block.
const (
	elasticRows  = 8_000_000
	elasticCross = 0.10
)

// elasticModes are the router configurations the sweep compares: static
// hash (uniform load, every multi-row transaction two-phase), static even
// range map (block-local commits, hot blocks stay wherever they landed),
// and elastic (cold-start single-owner map + the live rebalancer).
var elasticModes = []string{"hash", "range", "elastic"}

// elasticResult is one sweep point of the JSON artifact.
type elasticResult struct {
	Partitions int     `json:"partitions"`
	Mode       string  `json:"mode"`
	TPS        float64 `json:"tps"`
	CrossRatio float64 `json:"cross_ratio"`
	Moves      int64   `json:"moves"`
	Epoch      uint64  `json:"routing_epoch"`
}

// elasticMove is one trajectory entry: a live range migration observed
// during the elastic sweep, timestamped from the point's start.
type elasticMove struct {
	MS   int64  `json:"ms"`
	Lo   uint64 `json:"lo"`
	Hi   uint64 `json:"hi"`
	From int    `json:"from"`
	To   int    `json:"to"`
}

// elasticChaosResult is the live-split safety verification: every acked
// commit must still be committed — and at its acked timestamp — after a
// storm of concurrent range migrations.
type elasticChaosResult struct {
	Acked     int   `json:"acked_commits"`
	Lost      int   `json:"lost"`
	Invisible int   `json:"invisible"`
	Moves     int64 `json:"moves"`
}

// elasticReport is the BENCH_scaleout.json schema.
type elasticReport struct {
	Experiment    string             `json:"experiment"`
	Engine        string             `json:"engine"`
	Rows          int64              `json:"rows"`
	Blocks        int64              `json:"blocks"`
	ZipfianTheta  float64            `json:"zipfian_theta"`
	CrossFraction float64            `json:"cross_fraction"`
	Quick         bool               `json:"quick"`
	Sweep         []elasticResult    `json:"sweep"`
	ElasticVsHash map[string]float64 `json:"elastic_vs_hash"`
	Trajectory    []elasticMove      `json:"trajectory"`
	Chaos         elasticChaosResult `json:"chaos"`
}

// elasticWALFor builds the same replicated-bookie WAL stack the scaleout
// experiment runs (1 ms append latency, quorum 2 of 3, early batch cut).
func elasticWALFor() (func(i int) *wal.Writer, func(), error) {
	var writers []*wal.Writer
	var werr error
	walFor := func(i int) *wal.Writer {
		for len(writers) <= i {
			ledgers := []wal.Ledger{wal.NewMemLedger(), wal.NewMemLedger(), wal.NewMemLedger()}
			for _, l := range ledgers {
				ml := l.(*wal.MemLedger)
				ml.Latency = 200 * time.Microsecond
				// The scarce resource this sweep contends for: each
				// partition's log has bounded sequential-write bandwidth, so
				// per-partition commit capacity is fixed and routing decides
				// how much of it each transaction burns. Hash routing pays
				// prepare+decide records on every touched partition; range
				// and elastic routing pay one commit record on one partition.
				ml.Bandwidth = 160 << 10 // 160 KiB/s per ledger
			}
			w, err := wal.NewWriter(wal.Config{Quorum: 2}, ledgers...)
			if err != nil {
				werr = err
				return nil
			}
			writers = append(writers, w)
		}
		return writers[i]
	}
	closeAll := func() {
		for _, w := range writers {
			w.Close()
		}
	}
	return walFor, closeAll, werr
}

// elasticCluster builds the in-process partitioned oracle for one sweep
// point, returning the cluster, the rebalancer (nil unless mode is
// elastic; caller starts and stops it), and the WAL teardown.
func elasticCluster(engine oracle.Engine, partitions int, mode string, onMove func(lo, hi uint64, from, to int)) (*partition.LocalCluster, *partition.Rebalancer, func(), error) {
	var router partition.Router
	switch mode {
	case "hash":
		router = partition.NewHashRouter(partitions)
	case "range":
		rm, err := partition.NewEvenRangeMap(partitions, elasticRows)
		if err != nil {
			return nil, nil, nil, err
		}
		router = rm
	case "elastic":
		rm, err := partition.NewSingleOwnerRangeMap(partitions, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		router = rm
	default:
		return nil, nil, nil, fmt.Errorf("elastic: unknown mode %q", mode)
	}
	walFor, closeWALs, err := elasticWALFor()
	if err != nil {
		return nil, nil, nil, err
	}
	lc, err := partition.NewLocal(partition.LocalConfig{
		Partitions:  partitions,
		Engine:      engine,
		Router:      router,
		WALFor:      walFor,
		TSOBatch:    100_000,
		LoadSpan:    elasticRows,
		AsyncDecide: true,
	})
	if err != nil {
		closeWALs()
		return nil, nil, nil, err
	}
	var rb *partition.Rebalancer
	if mode == "elastic" {
		rb = partition.NewRebalancer(lc.Coordinator, partition.RebalanceConfig{
			Interval: 20 * time.Millisecond,
			MaxMoves: 4,
			// The trigger must sit above the sampling noise of one window
			// (~100ms of zipfian draws), or the controller chases phantom
			// imbalance forever; the no-inversion rule in the move picker
			// handles the ping-pong case, this handles the noise case.
			MinImbalance: 1.5,
			MinLoad:      512,
			LoadSpan:     elasticRows,
			OnMove:       onMove,
		})
	}
	return lc, rb, closeWALs, nil
}

// elasticPoint measures committed wall-clock throughput for one
// (partitions, mode) configuration under the hot-block zipfian mix.
func elasticPoint(engine oracle.Engine, partitions int, mode string, workers, batchSize int, measure time.Duration, traj *[]elasticMove) (tps float64, st partition.Stats, err error) {
	start := time.Now()
	var trajMu sync.Mutex
	onMove := func(lo, hi uint64, from, to int) {
		if traj == nil {
			return
		}
		trajMu.Lock()
		*traj = append(*traj, elasticMove{MS: time.Since(start).Milliseconds(), Lo: lo, Hi: hi, From: from, To: to})
		trajMu.Unlock()
	}
	lc, rb, closeWALs, err := elasticCluster(engine, partitions, mode, onMove)
	if err != nil {
		return 0, partition.Stats{}, err
	}
	defer closeWALs()
	co := lc.Coordinator

	var (
		stop      atomic.Bool
		measuring atomic.Bool
		committed atomic.Int64
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			mix := workload.NewHotCrossMix(workload.ComplexWorkload(), elasticRows, 0, elasticCross)
			reqs := make([]oracle.CommitRequest, batchSize)
			for !stop.Load() {
				for i := range reqs {
					ts, err := co.Begin()
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
				results, err := co.CommitBatch(reqs)
				if err != nil {
					return
				}
				if measuring.Load() {
					var n int64
					for i := range results {
						if results[i].Committed {
							n++
						}
					}
					committed.Add(n)
				}
			}
		}(int64(g)*104729 + int64(partitions)*31)
	}
	time.Sleep(measure / 3) // warm up
	if rb != nil {
		// Converge before measuring: the point is the steady state after
		// the live splits, not the cold-start transient (the transient
		// itself is what the trajectory records). The controller is driven
		// synchronously here — on a loaded box a background ticker starves
		// and would still be mid-convergence when the window opens. Quiet
		// means four consecutive ticks without a move (a moving tick
		// re-baselines, so the tick right after it can never move).
		for rounds, quiet := 0, 0; rounds < 60 && quiet < 4; rounds++ {
			time.Sleep(100 * time.Millisecond)
			before := rb.Moves()
			rb.Tick()
			if rb.Moves() == before {
				quiet++
			} else {
				quiet = 0
			}
		}
		// No ticks during the measurement window: a noise-triggered move
		// mid-window quiesces the commit pipeline (exclusive routing lock +
		// decide drain) and corrupts the capacity reading. Live adaptation
		// under load is what the chaos phase demonstrates.
	}
	movesBefore := int64(0)
	if rb != nil {
		movesBefore = rb.Moves()
	}
	var loads0 []int64
	if os.Getenv("ELASTIC_DEBUG") != "" {
		loads0 = partLoadTotals(co.Stats())
	}
	measuring.Store(true)
	time.Sleep(measure)
	measuring.Store(false)
	stop.Store(true)
	done := committed.Load()
	wg.Wait()
	if err := co.DrainDecides(); err != nil {
		return 0, partition.Stats{}, err
	}
	if done == 0 {
		return 0, partition.Stats{}, fmt.Errorf("elastic: no committed transactions (%s, %d partitions)", mode, partitions)
	}
	st = co.Stats()
	if os.Getenv("ELASTIC_DEBUG") != "" {
		now := partLoadTotals(st)
		for p := range now {
			win := now[p]
			if loads0 != nil && p < len(loads0) {
				win -= loads0[p]
			}
			fmt.Fprintf(os.Stderr, "debug %s p%d window-load=%d\n", mode, p, win)
		}
		if rb != nil {
			fmt.Fprintf(os.Stderr, "debug %s moves-in-window=%d\n", mode, rb.Moves()-movesBefore)
		}
		fmt.Fprintf(os.Stderr, "debug %s spec=%s\n", mode, partition.RouterSpec(co.Router()))
	}
	return float64(done) / measure.Seconds(), st, nil
}

// partLoadTotals sums each partition's load histogram.
func partLoadTotals(st partition.Stats) []int64 {
	out := make([]int64, len(st.Partitions))
	for p, ps := range st.Partitions {
		for _, v := range ps.SliceLoads {
			out[p] += v
		}
	}
	return out
}

// elasticChaos hammers an elastic cluster with committers while a storm of
// live range migrations runs concurrently, then audits every acked commit:
// each must still resolve committed at its acked timestamp. It returns the
// audit (Lost = acked then aborted, Invisible = acked then pending/unknown
// or timestamp-shifted — both must be zero).
func elasticChaos(engine oracle.Engine, partitions, workers int, duration time.Duration) (elasticChaosResult, error) {
	lc, _, closeWALs, err := elasticCluster(engine, partitions, "elastic", nil)
	if err != nil {
		return elasticChaosResult{}, err
	}
	defer closeWALs()
	co := lc.Coordinator

	type acked struct{ start, commit uint64 }
	var (
		stop    atomic.Bool
		ackedMu sync.Mutex
		all     []acked
	)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			mix := workload.NewHotCrossMix(workload.ComplexWorkload(), elasticRows, 0, elasticCross)
			var local []acked
			reqs := make([]oracle.CommitRequest, 16)
			for !stop.Load() {
				for i := range reqs {
					ts, err := co.Begin()
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
				results, err := co.CommitBatch(reqs)
				if err != nil {
					return
				}
				for i := range results {
					if results[i].Committed && len(reqs[i].WriteSet) > 0 {
						local = append(local, acked{reqs[i].StartTS, results[i].CommitTS})
					}
				}
			}
			ackedMu.Lock()
			all = append(all, local...)
			ackedMu.Unlock()
		}(int64(g)*7907 + 11)
	}

	// The migration storm: bucket-aligned ranges bounce between partitions
	// as fast as MoveRange admits them, exercising the epoch fence and the
	// export/apply/discard path under full commit load.
	var moves atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(42))
		for !stop.Load() {
			b := rng.Intn(oracle.LoadBuckets)
			span := 1 + rng.Intn(4)
			lo, _ := oracle.LoadBucketRange(elasticRows, b)
			last := b + span - 1
			if last >= oracle.LoadBuckets {
				last = oracle.LoadBuckets - 1
			}
			_, hi := oracle.LoadBucketRange(elasticRows, last)
			if err := co.MoveRange(lo, hi, rng.Intn(partitions)); err == nil {
				moves.Add(1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	if err := co.DrainDecides(); err != nil {
		return elasticChaosResult{}, err
	}

	res := elasticChaosResult{Acked: len(all), Moves: moves.Load()}
	const auditBatch = 4096
	for off := 0; off < len(all); off += auditBatch {
		end := off + auditBatch
		if end > len(all) {
			end = len(all)
		}
		tss := make([]uint64, end-off)
		for i := range tss {
			tss[i] = all[off+i].start
		}
		sts := co.QueryBatch(tss)
		for i, st := range sts {
			switch {
			case st.Status == oracle.StatusCommitted && st.CommitTS == all[off+i].commit:
				// visible at the acked timestamp — good
			case st.Status == oracle.StatusAborted:
				res.Lost++
			default:
				res.Invisible++
			}
		}
	}
	return res, nil
}

func init() {
	register(Experiment{
		Name:  "scaleout-elastic",
		Title: "Elastic live repartitioning: hot-block zipfian skew, static vs elastic routing, live-split safety",
		Run: func(quick bool) (string, error) {
			parts := ScaleoutPartitions
			if quick {
				var trimmed []int
				for _, p := range ScaleoutPartitions {
					if p == 1 || p == 4 {
						trimmed = append(trimmed, p)
					}
				}
				if len(trimmed) > 0 {
					parts = trimmed
				}
			}
			// Enough workers to keep every partition's group commit saturated:
			// the sweep measures sustained capacity (where the two-phase CPU
			// and fan-out tax binds), not idle round-trip latency.
			measure := 1500 * time.Millisecond
			workers := 32
			chaosDur := 1500 * time.Millisecond
			if quick {
				measure = 500 * time.Millisecond
				workers = 16
				chaosDur = 500 * time.Millisecond
			}

			rep := elasticReport{
				Experiment:    "scaleout-elastic",
				Engine:        "wsi",
				Rows:          elasticRows,
				Blocks:        workload.DefaultHotBlocks,
				ZipfianTheta:  0.99,
				CrossFraction: elasticCross,
				Quick:         quick,
				ElasticVsHash: map[string]float64{},
			}

			var b strings.Builder
			b.WriteString(header("Elastic live repartitioning — hot-block zipfian scale-out"))
			b.WriteString("\nScrambledZipfian(0.99) over 1024 contiguous blocks, rows uniform within a\n")
			b.WriteString("block, 10% of writes forced across a second block. hash scatters every\n")
			b.WriteString("multi-row commit (two-phase tax); range/elastic keep commits block-local;\n")
			b.WriteString("elastic cold-starts on ONE partition and live-splits under load.\n\n")
			fmt.Fprintf(&b, "%-6s %-9s %12s %9s %8s %7s\n", "parts", "mode", "TPS", "x-ratio", "moves", "epoch")
			tpsBy := map[string]map[int]float64{}
			for _, mode := range elasticModes {
				tpsBy[mode] = map[int]float64{}
				for _, p := range parts {
					if p == 1 && mode != "hash" {
						// One partition has nothing to route or rebalance;
						// the hash row is the centralized baseline.
						continue
					}
					var traj *[]elasticMove
					if mode == "elastic" {
						traj = &rep.Trajectory
					}
					tps, st, err := elasticPoint(oracle.WSI, p, mode, workers, 32, measure, traj)
					if err != nil {
						return "", err
					}
					tpsBy[mode][p] = tps
					rep.Sweep = append(rep.Sweep, elasticResult{
						Partitions: p, Mode: mode, TPS: tps,
						CrossRatio: st.CrossRatio(), Moves: st.Moves, Epoch: st.RoutingEpoch,
					})
					fmt.Fprintf(&b, "%-6d %-9s %12.0f %8.1f%% %8d %7d\n",
						p, mode, tps, st.CrossRatio()*100, st.Moves, st.RoutingEpoch)
				}
				b.WriteString("\n")
			}
			for _, p := range parts {
				if p == 1 {
					continue
				}
				if h, e := tpsBy["hash"][p], tpsBy["elastic"][p]; h > 0 && e > 0 {
					rep.ElasticVsHash[fmt.Sprintf("%dp", p)] = e / h
					fmt.Fprintf(&b, "elastic vs hash at %d partitions: %.2fx\n", p, e/h)
				}
			}

			b.WriteString("\nLive-split safety: committers race a migration storm, then every acked\n")
			b.WriteString("commit is audited against the merged status query:\n\n")
			chaosParts := 4
			if len(parts) > 0 && parts[len(parts)-1] < 4 {
				chaosParts = parts[len(parts)-1]
			}
			chaos, err := elasticChaos(oracle.WSI, chaosParts, workers, chaosDur)
			if err != nil {
				return "", err
			}
			rep.Chaos = chaos
			fmt.Fprintf(&b, "acked=%d moves=%d lost=%d invisible=%d\n",
				chaos.Acked, chaos.Moves, chaos.Lost, chaos.Invisible)
			if chaos.Lost != 0 || chaos.Invisible != 0 {
				return "", fmt.Errorf("elastic chaos: %d lost, %d invisible acked commits", chaos.Lost, chaos.Invisible)
			}
			b.WriteString("zero acked commits lost or made invisible across live splits.\n")

			if ElasticJSONPath != "" {
				data, err := json.MarshalIndent(rep, "", "  ")
				if err != nil {
					return "", err
				}
				if err := os.WriteFile(ElasticJSONPath, append(data, '\n'), 0o644); err != nil {
					return "", err
				}
				fmt.Fprintf(&b, "\n[json artifact written to %s]\n", ElasticJSONPath)
			}
			return b.String(), nil
		},
	})
}
