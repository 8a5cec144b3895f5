package main

import (
	"math/rand"

	"repro/internal/oracle"
	"repro/internal/workload"
)

// op is one row access of a generated transaction, in generated order.
type op struct {
	row   int32
	write bool
}

// request is one generated transaction. Rows index inputs.keys and
// inputs.rowIDs; the program under test sees only keys and row ids.
type request struct {
	ops    []op
	reads  []int32 // distinct rows read
	writes []int32 // distinct rows written
}

// inputs is everything a run feeds the system, generated from the seed
// before any timing starts.
type inputs struct {
	keys   []string       // row key per row index (nil on cross-partition)
	rowIDs []oracle.RowID // oracle row id per row index
	reqs   []request
}

// poolSize is the number of generated transactions per run; workers cycle
// through the pool when a run outlasts it.
const poolSize = 1 << 17

func fromTxn(t workload.Txn) request {
	r := request{ops: make([]op, len(t.Ops))}
	for i, o := range t.Ops {
		r.ops[i] = op{row: int32(o.Row), write: o.Kind == workload.OpWrite}
	}
	for _, row := range t.ReadRows() {
		r.reads = append(r.reads, int32(row))
	}
	for _, row := range t.WriteRows() {
		r.writes = append(r.writes, int32(row))
	}
	return r
}

// denseKeys names rows 0..rows-1 with the store's fixed-width keys.
func denseKeys(rows int64) ([]string, []oracle.RowID) {
	keys := make([]string, rows)
	ids := make([]oracle.RowID, rows)
	for i := range keys {
		keys[i] = workload.Key(int64(i))
		ids[i] = oracle.HashRow(keys[i])
	}
	return keys, ids
}

// genBlindWrites: n transactions of four blind writes, rows uniform over
// 2^30, so no two transactions of a run conflict (WSI checks read sets, and
// these are empty).
func genBlindWrites(_ int64, rng *rand.Rand, n int) *inputs {
	const perTxn = 4
	in := &inputs{
		keys:   make([]string, n*perTxn),
		rowIDs: make([]oracle.RowID, n*perTxn),
		reqs:   make([]request, n),
	}
	for i := range in.keys {
		in.keys[i] = workload.Key(rng.Int63n(1 << 30))
		in.rowIDs[i] = oracle.HashRow(in.keys[i])
	}
	for i := range in.reqs {
		r := &in.reqs[i]
		for j := 0; j < perTxn; j++ {
			row := int32(i*perTxn + j)
			r.ops = append(r.ops, op{row: row, write: true})
			r.writes = append(r.writes, row)
		}
	}
	return in
}

// genMix draws transactions of cfg over rows, keyed as the store keys them.
func genMix(cfg workload.MixConfig, gen func(rows int64) workload.Generator) func(int64, *rand.Rand, int) *inputs {
	return func(rows int64, rng *rand.Rand, n int) *inputs {
		in := &inputs{reqs: make([]request, n)}
		in.keys, in.rowIDs = denseKeys(rows)
		mix := workload.NewMix(cfg, gen(rows))
		for i := range in.reqs {
			in.reqs[i] = fromTxn(mix.Next(rng))
		}
		return in
	}
}

// genCrossMix draws the partition-aware mix; its rows are dense indexes
// that the even range router slices, so row ids are the indexes themselves.
func genCrossMix(partitions int, cross float64) func(int64, *rand.Rand, int) *inputs {
	return func(rows int64, rng *rand.Rand, n int) *inputs {
		in := &inputs{rowIDs: make([]oracle.RowID, rows), reqs: make([]request, n)}
		for i := range in.rowIDs {
			in.rowIDs[i] = oracle.RowID(i)
		}
		mix := workload.NewCrossMix(workload.ComplexWorkload(), partitions, cross, rows)
		for i := range in.reqs {
			in.reqs[i] = fromTxn(mix.Next(rng))
		}
		return in
	}
}
