package repro

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// costOut names the file TestCost writes its lines to (scripts/cost.sh sets
// it); empty, the test only logs them.
var costOut = flag.String("cost.out", "", "write the counted cost as JSON to this file")

const (
	costRows   = 10_000 // preloaded rows every shape draws from
	costWarmup = 500    // transactions run before counting: pools and tables warm
	costTxns   = 2_000  // transactions counted per shape
)

// costShape is one fixed-seed transaction shape: its operations, generated
// before anything is counted.
type costShape struct {
	name string
	gen  func(r *rand.Rand) workload.Txn
}

var costShapes = []costShape{
	{"write", func(r *rand.Rand) workload.Txn {
		// Four blind puts, uniform over the rows: the write-durable shape.
		ops := make([]workload.Op, 4)
		for i := range ops {
			ops[i] = workload.Op{Kind: workload.OpWrite, Row: r.Int63n(costRows)}
		}
		return workload.Txn{Kind: workload.TxnComplex, Ops: ops}
	}},
	// The §6.1 mixed workload over zipfian rows: the mixed-zipf shape.
	{"mixed", workload.NewMix(workload.MixedWorkload(), workload.NewScrambledZipfian(costRows)).Next},
}

// TestCost counts what one transaction allocates in an in-process
// core.System, per shape and engine, with one goroutine and a fixed seed:
// allocations and bytes per transaction over costTxns transactions, the
// collector off while counting so that pooled buffers survive as they do
// between collections. scripts/cost.sh records the result in COST.json and
// checks it against the file, on the Go release that recorded it.
func TestCost(t *testing.T) {
	var lines []string
	for _, shape := range costShapes {
		for _, engine := range []core.Engine{core.WSI, core.SI} {
			allocs, bytes := countCost(t, shape, engine)
			if allocs <= 0 || bytes <= 0 {
				t.Fatalf("%s/%v: %.2f allocs, %.1f bytes per transaction", shape.name, engine, allocs, bytes)
			}
			prefix := fmt.Sprintf("%s_%s", shape.name, strings.ToLower(engine.String()))
			lines = append(lines,
				fmt.Sprintf("  %q: %.2f", prefix+"_allocs_per_txn", allocs),
				fmt.Sprintf("  %q: %.1f", prefix+"_bytes_per_txn", bytes))
		}
	}
	lines = append(lines, fmt.Sprintf("  %q: %q", "go_release", goRelease()))
	out := "{\n" + strings.Join(lines, ",\n") + "\n}\n"
	t.Log("\n" + out)
	if *costOut != "" {
		if err := os.WriteFile(*costOut, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// goRelease is the Go release the counts were taken with ("go1.24"): the
// runtime's and the compiler's allocation behaviour change between
// releases, not within one.
func goRelease() string {
	parts := strings.SplitN(runtime.Version(), ".", 3)
	if len(parts) < 2 {
		return runtime.Version()
	}
	return parts[0] + "." + parts[1]
}

// countCost runs one shape under one engine and returns its allocations and
// bytes per transaction.
func countCost(t *testing.T, shape costShape, engine core.Engine) (allocs, bytes float64) {
	sys, err := core.New(core.Options{Engine: engine})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	keys := make([]string, costRows)
	for i := range keys {
		keys[i] = workload.Key(int64(i))
	}
	value := []byte("8 bytes.")
	load, err := sys.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if err := load.Put(k, value); err != nil {
			t.Fatal(err)
		}
	}
	if err := load.Commit(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	txns := make([]workload.Txn, costWarmup+costTxns)
	for i := range txns {
		txns[i] = shape.gen(rng)
	}
	run := func(txns []workload.Txn) {
		for _, w := range txns {
			tx, err := sys.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range w.Ops {
				if op.Kind == workload.OpWrite {
					err = tx.Put(keys[op.Row], value)
				} else {
					_, _, err = tx.Get(keys[op.Row])
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Commit(); err != nil && !core.IsConflict(err) {
				t.Fatal(err)
			}
		}
	}
	run(txns[:costWarmup])
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(txns[costWarmup:])
	runtime.ReadMemStats(&after)
	n := float64(costTxns)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}
