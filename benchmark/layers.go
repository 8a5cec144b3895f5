package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// The standalone drivers: each replays the workload's own generated request
// shapes through one exported function of one layer, alone, and reports the
// CPU it burns per operation (process CPU time, so a driver that waits is
// not charged for waiting). Their sum, weighted by how often a transaction
// uses each, is what the per-layer ledger can attribute; the rest of
// cpu_us_per_txn is the ledger's first finding.
type driverReport struct {
	oracleCommitNS, oracleCommitAllocs float64 // per transaction, Begin included
	oracleQueryNS                      float64 // per status lookup
	tsoNextBlockNS                     float64 // per block of coalesceMaxBatch timestamps
	walAppendAllNS                     float64 // per entry, zero-latency ledgers
	walFsyncUSP50                      float64 // FileLedger append+fsync, this sandbox's file system
	walFsyncSamples                    int64
	kvMultigetNS, kvPutNS              float64 // per key
}

// drive calls step until dur has passed and returns CPU nanoseconds and
// allocations per operation; step returns how many operations it did. It
// collects garbage first: the run leaves a large heap behind, and a
// collection cycle that happened to fall inside one driver's half second
// was charged to it (kvstore.put_ns read 700 ns or 5300 ns).
func drive(dur time.Duration, step func() int) (nsPerOp, allocsPerOp float64) {
	var ops int
	runtime.GC()
	before := readUsage()
	for start := time.Now(); time.Since(start) < dur; {
		ops += step()
	}
	after := readUsage()
	return ratio(float64(after.cpuNS-before.cpuNS), float64(ops)), ratio(float64(after.mallocs-before.mallocs), float64(ops))
}

func rowSet(in *inputs, rows []int32) []oracle.RowID {
	out := make([]oracle.RowID, len(rows))
	for i, r := range rows {
		out[i] = in.rowIDs[r]
	}
	return out
}

func runDrivers(cfg runConfig, sys *system, in *inputs, c0, c1 counters) (*driverReport, error) {
	dr := &driverReport{}
	dur := cfg.driverDur

	// oracle: CommitBatch in batches of the coalescer's size over the
	// workload's row sets, then QueryBatch over what it committed.
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(tsoBlock, nil)})
	if err != nil {
		return nil, err
	}
	const ring = 4096 // prepared requests, so building row sets is outside the timed loop
	prepared := make([]oracle.CommitRequest, ring)
	for i := range prepared {
		r := &in.reqs[i%len(in.reqs)]
		prepared[i] = oracle.CommitRequest{WriteSet: rowSet(in, r.writes), ReadSet: rowSet(in, r.reads)}
	}
	var committed []uint64
	next := 0
	batch := make([]oracle.CommitRequest, coalesceMaxBatch)
	var stepErr error // an in-memory oracle and clock fail only by a bug; keep the first failure
	note := func(err error) {
		if err != nil && stepErr == nil {
			stepErr = err
		}
	}
	dr.oracleCommitNS, dr.oracleCommitAllocs = drive(dur, func() int {
		for i := range batch {
			batch[i] = prepared[next%ring]
			next++
			ts, err := so.Begin()
			note(err)
			batch[i].StartTS = ts
		}
		res, err := so.CommitBatch(batch)
		note(err)
		for i, r := range res {
			if r.Committed && len(committed) < 1<<20 {
				committed = append(committed, batch[i].StartTS)
			}
		}
		return len(batch)
	})
	if stepErr != nil {
		return nil, fmt.Errorf("oracle driver: %w", stepErr)
	}
	if len(committed) >= 16 {
		at := 0
		dr.oracleQueryNS, _ = drive(dur, func() int {
			if at+16 > len(committed) {
				at = 0
			}
			so.QueryBatch(committed[at : at+16])
			at += 16
			return 16
		})
	}

	clock := tso.New(tsoBlock, nil)
	dr.tsoNextBlockNS, _ = drive(dur/2, func() int {
		_, err := clock.NextBlock(coalesceMaxBatch, nil)
		note(err)
		return 1
	})
	if stepErr != nil {
		return nil, fmt.Errorf("tso driver: %w", stepErr)
	}

	if len(sys.stacks) > 0 {
		entryBytes := int(ratio(float64(c1.walBytes-c0.walBytes), float64(c1.walEntries-c0.walEntries)))
		if entryBytes < 16 {
			entryBytes = 16
		}
		if err := driveWAL(dr, dur, cfg.spec.sessions, entryBytes-8); err != nil { // the writer adds an 8-byte frame
			return nil, err
		}
		batchBytes := int(ratio(float64(c1.walBytes-c0.walBytes), float64(c1.walBatches-c0.walBatches)))
		if err := driveFileLedger(dr, batchBytes); err != nil {
			return nil, err
		}
	}

	if sys.store != nil {
		// kvstore, on the run's own store once everything else has been
		// read off it: MultiGet over the workload's read sets, Put over
		// its write sets at fresh timestamps.
		var reads, writes [][]string
		for i := 0; i < ring; i++ {
			r := &in.reqs[i%len(in.reqs)]
			var rk, wk []string
			for _, row := range r.reads {
				rk = append(rk, in.keys[row])
			}
			for _, row := range r.writes {
				wk = append(wk, in.keys[row])
			}
			if len(rk) > 0 {
				reads = append(reads, rk)
			}
			if len(wk) > 0 {
				writes = append(writes, wk)
			}
		}
		at := 0
		if len(reads) > 0 {
			dr.kvMultigetNS, _ = drive(dur, func() int {
				keys := reads[at%len(reads)]
				at++
				sys.store.MultiGet(keys, ^uint64(0), 0)
				return len(keys)
			})
		}
		if len(writes) > 0 {
			ts := uint64(1) << 62 // above any timestamp the run issued
			dr.kvPutNS, _ = drive(dur, func() int {
				keys := writes[at%len(writes)]
				at++
				for _, k := range keys {
					sys.store.Put(k, ts, rowValue)
				}
				ts++
				return len(keys)
			})
		}
	}
	return dr, nil
}

// driveWAL measures the writer's own CPU per entry: the run's flush policy
// over ledgers that answer at once, fed by as many appenders as the run has
// sessions so group commits form as they do in the run.
func driveWAL(dr *driverReport, dur time.Duration, appenders, entryBytes int) error {
	w, err := wal.NewWriter(wal.Config{BatchBytes: walBatchBytes, BatchDelay: walBatchDelay, Quorum: ledgerQuorum},
		wal.DiscardLedger{}, wal.DiscardLedger{}, wal.DiscardLedger{})
	if err != nil {
		return err
	}
	defer w.Close()
	entry := make([]byte, entryBytes)
	var mu sync.Mutex
	var total int
	var firstErr error
	runtime.GC()
	before := readUsage()
	var wg sync.WaitGroup
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := 0
			var err error
			for start := time.Now(); time.Since(start) < dur && err == nil; n++ {
				err = w.AppendAll(entry)
			}
			mu.Lock()
			total += n
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	after := readUsage()
	if firstErr != nil {
		return fmt.Errorf("wal driver: %w", firstErr)
	}
	dr.walAppendAllNS = ratio(float64(after.cpuNS-before.cpuNS), float64(total))
	return nil
}

// driveFileLedger times append+fsync of run-sized batches on a file in a
// scratch directory under the working directory.
func driveFileLedger(dr *driverReport, batchBytes int) error {
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.OpenFileLedger(filepath.Join(dir, "ledger"), true)
	if err != nil {
		return err
	}
	defer l.Close()
	if batchBytes < 64 {
		batchBytes = 64
	}
	batch := make([]byte, batchBytes)
	const appends = 100
	durs := make([]int64, 0, appends)
	for i := 0; i < appends; i++ {
		t0 := time.Now()
		if _, err := l.AppendBatch(batch); err != nil {
			return fmt.Errorf("file ledger driver: %w", err)
		}
		durs = append(durs, int64(time.Since(t0)))
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	dr.walFsyncUSP50 = quantile(durs, 0.5) / 1e3
	dr.walFsyncSamples = appends
	return nil
}
