package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/wal"
)

// appendixWAL reproduces the Appendix A BookKeeper sizing argument: a
// remote ledger that sustains a limited number of raw writes per second
// can, with group commit (the paper: 1 KB / 5 ms triggers; here: whatever
// arrived while the previous write was in flight), persist an order of
// magnitude more commit records per second. We model the bookie with a
// fixed per-write latency and compare entry throughput of one appender at a
// time — every record its own ledger write — with 64 concurrent ones.
func appendixWAL(entries int, ledgerLatency time.Duration) (string, error) {
	// writers models concurrent commit requests appending ~100-byte commit
	// records (Appendix A: 32 bytes/row, ~10 written rows per transaction).
	run := func(writers int) (perSec float64, batches int, err error) {
		ledger := wal.NewMemLedger()
		ledger.Latency = ledgerLatency
		w, err := wal.NewWriter(wal.Config{}, ledger)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		var wg sync.WaitGroup
		per := entries / writers
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := make([]byte, 100)
				for i := 0; i < per; i++ {
					if err := w.Append(rec); err != nil {
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		w.Close()
		n, _ := ledger.NumBatches()
		return float64(per*writers) / elapsed.Seconds(), n, nil
	}

	var b strings.Builder
	b.WriteString(header("Appendix A — WAL group commit: raw vs batched persistence throughput"))
	fmt.Fprintf(&b, "bookie write latency: %v; %d commit records of 100 B\n\n", ledgerLatency, entries)
	fmt.Fprintf(&b, "%-28s %14s %10s %14s\n", "policy", "records/s", "batches", "records/batch")

	raw, rawBatches, err := run(1)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%-28s %14.0f %10d %14.1f\n", "one appender (no batching)", raw, rawBatches, float64(entries)/float64(rawBatches))

	batched, bBatches, err := run(64)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "%-28s %14.0f %10d %14.1f\n", "64 appenders, group commit", batched, bBatches, float64(entries)/float64(bBatches))
	fmt.Fprintf(&b, "\nspeedup: %.1fx (paper: batching factor ~10 lifts 20K writes/s to 200K TPS)\n", batched/raw)

	// Appendix A sizing arithmetic, restated mechanically.
	b.WriteString("\nmemory sizing (Appendix A): 32 B/row keeps 32M rows in 1 GB;\n")
	b.WriteString("at 8 rows/txn that is the last 4M transactions, i.e. 50 s of history\n")
	b.WriteString("at 80K TPS — far above the hundreds of ms a commit takes.\n")
	return b.String(), nil
}

func init() {
	register(Experiment{
		Name:  "appendix-wal",
		Title: "Appendix A: WAL group-commit throughput and sizing",
		Run: func(quick bool) (string, error) {
			if quick {
				return appendixWAL(2_000, 500*time.Microsecond)
			}
			return appendixWAL(20_000, time.Millisecond)
		},
	})
}
