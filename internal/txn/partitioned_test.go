package txn

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/history"
	"repro/internal/kvstore"
	"repro/internal/netsrv"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/tso"
)

// TestPartitionedTxnSerializability runs the serializability check over a
// 4-partition in-process oracle (partition.NewLocal).
func TestPartitionedTxnSerializability(t *testing.T) {
	lc, err := partition.NewLocal(partition.LocalConfig{Partitions: 4, Engine: oracle.WSI})
	if err != nil {
		t.Fatalf("local cluster: %v", err)
	}
	checkPartitionedSerializability(t, lc.Coordinator)
}

// TestPartitionedWireSerializability runs the same check over four loopback
// partition servers, each with its own timestamp oracle, dialled through
// netsrv.DialPartitioned: the path oracle-server -partitions deployments
// run, where partition 0's server is the only clock.
func TestPartitionedWireSerializability(t *testing.T) {
	const n = 4
	addrs := make([]string, n)
	for i := range addrs {
		so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
		if err != nil {
			t.Fatalf("oracle %d: %v", i, err)
		}
		srv := netsrv.NewServer(so)
		srv.Logf = nil
		srv.PartitionID, srv.Partitions = i, n
		if addrs[i], err = srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
	}
	pc, err := netsrv.DialPartitioned(oracle.WSI, partition.NewHashRouter(n), addrs...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()
	checkPartitionedSerializability(t, pc.Coordinator)
}

// checkPartitionedSerializability runs the full transaction layer —
// unchanged — on top of a partitioned status oracle, with a write-heavy
// random mix whose keys hash across every partition, then reconstructs
// the execution as a paper-notation history and checks it with
// internal/history's machinery: every read observed exactly the version
// the snapshot semantics prescribe, and the multi-version serialization
// graph is acyclic (WSI's Theorem 1, now across a scale-out oracle).
func checkPartitionedSerializability(t *testing.T, co *partition.Coordinator) {
	t.Helper()
	store := kvstore.New(kvstore.Config{})
	client, err := NewClient(store, co, Config{Mode: ModeQuery})
	if err != nil {
		t.Fatalf("client: %v", err)
	}
	defer client.Close()

	const (
		keys    = 8
		workers = 6
		perG    = 80
	)
	type opRec struct {
		write  bool
		key    string
		writer uint64 // for reads: observed writer startTS (0 = initial)
	}
	type txnRecord struct {
		startTS, commitTS uint64
		ops               []opRec // in execution order (own-write visibility matters)
	}
	var mu sync.Mutex
	var committed []txnRecord
	var aborted int

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 41))
			for i := 0; i < perG; i++ {
				tx, err := client.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				rec := txnRecord{startTS: tx.StartTS()}
				nops := 2 + rng.Intn(4)
				for o := 0; o < nops; o++ {
					key := fmt.Sprintf("k%d", rng.Intn(keys))
					if rng.Intn(2) == 0 {
						raw, ok, err := tx.Get(key)
						if err != nil {
							t.Errorf("get: %v", err)
							return
						}
						var writer uint64
						if ok {
							writer = binary.BigEndian.Uint64(raw)
						}
						rec.ops = append(rec.ops, opRec{key: key, writer: writer})
					} else {
						val := make([]byte, 8)
						binary.BigEndian.PutUint64(val, tx.StartTS())
						if err := tx.Put(key, val); err != nil {
							t.Errorf("put: %v", err)
							return
						}
						rec.ops = append(rec.ops, opRec{write: true, key: key})
					}
				}
				if err := tx.Commit(); err == nil {
					rec.commitTS = tx.CommitTS()
					mu.Lock()
					committed = append(committed, rec)
					mu.Unlock()
				} else if errors.Is(err, ErrConflict) {
					mu.Lock()
					aborted++
					mu.Unlock()
				} else {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if len(committed) < workers*perG/4 {
		t.Fatalf("too few commits to be meaningful: %d (aborted %d)", len(committed), aborted)
	}

	// Reconstruct the run as a history: each transaction's reads and
	// writes sit at its start timestamp, its commit at its commit
	// timestamp, so the history's snapshot semantics (latest commit below
	// the reader's start) coincide with the system's.
	sort.Slice(committed, func(i, j int) bool { return committed[i].startTS < committed[j].startTS })
	id := make(map[uint64]int, len(committed)) // writer startTS -> txn id
	for i := range committed {
		id[committed[i].startTS] = i + 1
	}
	type event struct {
		ts     uint64
		commit bool // orders a read-only txn's commit (at ts == startTS) after its reads
		ops    []history.Op
	}
	var events []event
	type readProbe struct {
		key    string
		writer uint64 // observed writer startTS
	}
	probes := make(map[int][]readProbe) // txn id -> probes in emission order
	for i := range committed {
		rec := &committed[i]
		tid := i + 1
		var ops []history.Op
		for _, o := range rec.ops {
			if o.write {
				ops = append(ops, history.Op{Type: history.OpWrite, Txn: tid, Item: o.key})
			} else {
				ops = append(ops, history.Op{Type: history.OpRead, Txn: tid, Item: o.key})
				probes[tid] = append(probes[tid], readProbe{key: o.key, writer: o.writer})
			}
		}
		events = append(events,
			event{ts: rec.startTS, ops: ops},
			event{ts: rec.commitTS, commit: true, ops: []history.Op{{Type: history.OpCommit, Txn: tid}}})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].ts != events[j].ts {
			return events[i].ts < events[j].ts
		}
		return !events[i].commit && events[j].commit
	})
	var h history.History
	for _, e := range events {
		h = append(h, e.ops...)
	}
	if err := h.Validate(); err != nil {
		t.Fatalf("reconstructed history invalid: %v", err)
	}

	// Every read must have observed exactly the version the history's
	// snapshot semantics prescribe — i.e., the partitioned oracle's merged
	// answers never showed a half-decided or stale commit.
	sem := history.Evaluate(h)
	probeIdx := make(map[int]int)
	for i, op := range h {
		if op.Type != history.OpRead {
			continue
		}
		want, _ := sem.ReadsFrom(i)
		p := probes[op.Txn][probeIdx[op.Txn]]
		probeIdx[op.Txn]++
		got := 0
		if p.writer != 0 {
			w, ok := id[p.writer]
			if !ok {
				t.Fatalf("txn %d read uncommitted writer %d on %s", op.Txn, p.writer, p.key)
			}
			got = w
		}
		if got != want {
			t.Fatalf("txn %d read %s from txn %d, snapshot semantics prescribe txn %d",
				op.Txn, p.key, got, want)
		}
	}

	// Theorem 1 across partitions: the MVSG of the execution is acyclic.
	if !history.Serializable(h) {
		g := history.BuildGraph(h)
		t.Fatalf("partitioned WSI run not serializable; cycle: %v", g.FindCycle())
	}

	st := co.Stats()
	if st.CrossTxns == 0 {
		t.Fatalf("run exercised no cross-partition transactions: %+v", st)
	}
	t.Logf("partitioned run: %d committed, %d aborted, cross ratio %.2f, history %d ops",
		len(committed), aborted, st.CrossRatio(), len(h))
}
