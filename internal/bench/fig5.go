package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsrv"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
	"repro/internal/workload"
)

// fig5Point drives one measurement of the §6.3 status-oracle experiment:
// `clients` load generators, each keeping `outstanding` commit requests in
// flight against a real status oracle served over loopback TCP, with the
// WAL group-committing to latency-modelled in-memory ledgers. Transactions
// have zero execution time — begin is immediately followed by commit — so
// the status oracle is the only resource under test, exactly as in the
// paper ("the clients keep the pipe on the status oracle full").
func fig5Point(engine oracle.Engine, clients, outstanding int, measure time.Duration) (tps float64, avgLatencyMS float64, err error) {
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
	srv := netsrv.NewServer(so)
	srv.Logf = nil
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()

	const rows = 20_000_000
	var (
		stop      atomic.Bool
		measuring atomic.Bool
		completed atomic.Int64
		latencyNS atomic.Int64
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		conn, err := netsrv.Dial(addr)
		if err != nil {
			return 0, 0, err
		}
		defer conn.Close()
		for o := 0; o < outstanding; o++ {
			wg.Add(1)
			go func(seed int64, conn *netsrv.Client) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				mix := workload.NewMix(workload.ComplexWorkload(), workload.NewUniform(rows))
				for !stop.Load() {
					start := time.Now()
					ts, err := conn.Begin()
					if err != nil {
						return
					}
					tx := mix.Next(rng)
					req := oracle.CommitRequest{StartTS: ts}
					for _, r := range tx.WriteRows() {
						req.WriteSet = append(req.WriteSet, oracle.RowID(r))
					}
					if engine == oracle.WSI {
						for _, r := range tx.ReadRows() {
							req.ReadSet = append(req.ReadSet, oracle.RowID(r))
						}
					}
					if _, err := conn.Commit(req); err != nil {
						return
					}
					if measuring.Load() {
						completed.Add(1)
						latencyNS.Add(time.Since(start).Nanoseconds())
					}
				}
			}(int64(c)*1000+int64(o), conn)
		}
	}
	time.Sleep(measure / 3) // warm up
	measuring.Store(true)
	time.Sleep(measure)
	measuring.Store(false)
	stop.Store(true)
	done := completed.Load()
	total := latencyNS.Load()
	wg.Wait()
	if done == 0 {
		return 0, 0, fmt.Errorf("fig5: no completed transactions")
	}
	return float64(done) / measure.Seconds(),
		float64(total) / float64(done) / 1e6, nil
}

func init() {
	register(Experiment{
		Name:  "fig5",
		Title: "Figure 5: overhead on the status oracle (latency vs throughput, SI vs WSI)",
		Run: func(quick bool) (string, error) {
			clientCounts := []int{1, 2, 4, 8, 16, 26}
			outstanding := 100
			measure := 1500 * time.Millisecond
			if quick {
				clientCounts = []int{1, 4, 8}
				outstanding = 50
				measure = 500 * time.Millisecond
			}
			var b strings.Builder
			b.WriteString(header("Figure 5 — status-oracle throughput/latency, complex workload, 20M rows, 100 outstanding txns/client"))
			fmt.Fprintf(&b, "%-8s %-8s %14s %14s\n", "engine", "clients", "TPS", "avg-lat(ms)")
			series := map[oracle.Engine]*metrics.Series{
				oracle.WSI: {Name: "WSI"},
				oracle.SI:  {Name: "SI"},
			}
			for _, engine := range []oracle.Engine{oracle.WSI, oracle.SI} {
				for _, c := range clientCounts {
					tps, lat, err := fig5Point(engine, c, outstanding, measure)
					if err != nil {
						return "", err
					}
					series[engine].Add(tps, lat)
					fmt.Fprintf(&b, "%-8s %-8d %14.0f %14.2f\n", engine, c, tps, lat)
				}
			}
			b.WriteString("\nlatency vs throughput:\n")
			b.WriteString(metrics.Table("TPS", "lat(ms)", series[oracle.WSI], series[oracle.SI]))
			return b.String(), nil
		},
	})
}
