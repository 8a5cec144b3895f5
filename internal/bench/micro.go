package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/txn"
	"repro/internal/wal"
)

// microLatencies measures the §6.2 single-client operation breakdown on the
// real stack: a store charging the paper's operation latencies, a durable
// status oracle whose commit cost is dominated by the WAL group commit, and
// a single sequential client. The expected shape: reads ≈ 38.8 ms when the
// cache misses, writes ≈ 1.13 ms, start-timestamp requests far below a
// millisecond (amortized by timestamp reservation), commits a few ms
// (group-commit latency).
func microLatencies(txns, opsPerTxn int) (string, error) {
	ledger := wal.NewMemLedger()
	ledger.Latency = 2 * time.Millisecond // remote bookie round trip
	w, err := wal.NewWriter(wal.Config{}, ledger)
	if err != nil {
		return "", err
	}
	defer w.Close()
	clock := tso.New(10_000, w)
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock, WAL: w})
	if err != nil {
		return "", err
	}
	store := kvstore.New(kvstore.Config{
		Servers:   1,
		CacheRows: 1, // ~every random read misses, as on the 100GB table
		Latency:   kvstore.PaperLatencies(),
	})
	client, err := txn.NewClient(store, so, txn.Config{Mode: txn.ModeQuery})
	if err != nil {
		return "", err
	}
	defer client.Close()

	var startD, readD, writeD, commitD time.Duration
	var starts, reads, writes, commits int
	for i := 0; i < txns; i++ {
		t0 := time.Now()
		tx, err := client.Begin()
		if err != nil {
			return "", err
		}
		startD += time.Since(t0)
		starts++
		for j := 0; j < opsPerTxn; j++ {
			key := fmt.Sprintf("user%06d", (i*opsPerTxn+j)*7919%100000)
			t0 = time.Now()
			if _, _, err := tx.Get(key); err != nil {
				return "", err
			}
			readD += time.Since(t0)
			reads++
			t0 = time.Now()
			if err := tx.Put(key, []byte("value")); err != nil {
				return "", err
			}
			writeD += time.Since(t0)
			writes++
		}
		t0 = time.Now()
		if err := tx.Commit(); err != nil {
			return "", err
		}
		commitD += time.Since(t0)
		commits++
	}
	avg := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d.Microseconds()) / float64(n) / 1000
	}
	var b strings.Builder
	b.WriteString(header("§6.2 microbenchmark — single-client operation latency breakdown"))
	fmt.Fprintf(&b, "%-24s %12s %12s\n", "operation", "paper (ms)", "measured (ms)")
	fmt.Fprintf(&b, "%-24s %12.2f %12.2f\n", "start timestamp", 0.17, avg(startD, starts))
	fmt.Fprintf(&b, "%-24s %12.2f %12.2f\n", "random read", 38.80, avg(readD, reads))
	fmt.Fprintf(&b, "%-24s %12.2f %12.2f\n", "write", 1.13, avg(writeD, writes))
	fmt.Fprintf(&b, "%-24s %12.2f %12.2f\n", "commit", 4.10, avg(commitD, commits))
	return b.String(), nil
}

func init() {
	register(Experiment{
		Name:  "micro",
		Title: "§6.2 microbenchmark: per-operation latency breakdown",
		Run: func(quick bool) (string, error) {
			txns, ops := 30, 4
			if quick {
				txns, ops = 8, 2
			}
			return microLatencies(txns, ops)
		},
	})
}
