package oracle

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/tso"
)

func newOracle(t *testing.T, cfg Config) *StatusOracle {
	t.Helper()
	if cfg.TSO == nil {
		cfg.TSO = tso.New(0, nil)
	}
	so, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return so
}

func mustBegin(t *testing.T, so *StatusOracle) uint64 {
	t.Helper()
	ts, err := so.Begin()
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func mustCommit(t *testing.T, so *StatusOracle, req CommitRequest) CommitResult {
	t.Helper()
	res, err := so.Commit(req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func rows(keys ...string) []RowID {
	out := make([]RowID, len(keys))
	for i, k := range keys {
		out[i] = HashRow(k)
	}
	return out
}

func TestNewRequiresTSO(t *testing.T) {
	if _, err := New(Config{}); err != ErrNoTSO {
		t.Fatalf("err = %v, want ErrNoTSO", err)
	}
}

func TestSIWriteWriteConflict(t *testing.T) {
	so := newOracle(t, Config{Engine: SI})
	t1 := mustBegin(t, so)
	t2 := mustBegin(t, so)
	// t1 commits a write to x.
	r1 := mustCommit(t, so, CommitRequest{StartTS: t1, WriteSet: rows("x")})
	if !r1.Committed {
		t.Fatal("t1 should commit")
	}
	// t2, concurrent, also wrote x: write-write conflict, abort.
	r2 := mustCommit(t, so, CommitRequest{StartTS: t2, WriteSet: rows("x")})
	if r2.Committed {
		t.Fatal("t2 must abort on write-write conflict")
	}
}

func TestSIIgnoresReadSet(t *testing.T) {
	so := newOracle(t, Config{Engine: SI})
	t1 := mustBegin(t, so)
	t2 := mustBegin(t, so)
	mustCommit(t, so, CommitRequest{StartTS: t1, WriteSet: rows("x")})
	// t2 read x (modified concurrently) but wrote only y: SI commits.
	r2 := mustCommit(t, so, CommitRequest{StartTS: t2, WriteSet: rows("y"), ReadSet: rows("x")})
	if !r2.Committed {
		t.Fatal("SI must not check read-write conflicts")
	}
}

func TestWSIReadWriteConflict(t *testing.T) {
	so := newOracle(t, Config{Engine: WSI})
	t1 := mustBegin(t, so)
	t2 := mustBegin(t, so)
	mustCommit(t, so, CommitRequest{StartTS: t1, WriteSet: rows("x")})
	// t2 read x, which t1 modified during t2's lifetime: abort.
	r2 := mustCommit(t, so, CommitRequest{StartTS: t2, WriteSet: rows("y"), ReadSet: rows("x")})
	if r2.Committed {
		t.Fatal("WSI must abort on read-write conflict")
	}
}

func TestWSIAllowsWriteWriteConflict(t *testing.T) {
	// History 4: blind writes to the same row are fine under WSI.
	so := newOracle(t, Config{Engine: WSI})
	t1 := mustBegin(t, so)
	t2 := mustBegin(t, so)
	mustCommit(t, so, CommitRequest{StartTS: t1, WriteSet: rows("x"), ReadSet: rows("x")})
	r2 := mustCommit(t, so, CommitRequest{StartTS: t2, WriteSet: rows("x")})
	if !r2.Committed {
		t.Fatal("WSI must allow blind write-write overlap (History 4)")
	}
}

func TestNoConflictAfterCommitBeforeStart(t *testing.T) {
	// rw-temporal overlap requires Tc(j) > Ts(i): a commit before our
	// start is in our snapshot, not a conflict.
	for _, engine := range []Engine{SI, WSI} {
		so := newOracle(t, Config{Engine: engine})
		t1 := mustBegin(t, so)
		mustCommit(t, so, CommitRequest{StartTS: t1, WriteSet: rows("x")})
		t2 := mustBegin(t, so) // starts after t1 committed
		r2 := mustCommit(t, so, CommitRequest{StartTS: t2, WriteSet: rows("x"), ReadSet: rows("x")})
		if !r2.Committed {
			t.Fatalf("%v: non-concurrent transactions must not conflict", engine)
		}
	}
}

func TestReadOnlyNeverAborts(t *testing.T) {
	// §4.1/§5.1: read-only transactions commit without any check, even
	// when their read set was heavily modified.
	for _, engine := range []Engine{SI, WSI} {
		so := newOracle(t, Config{Engine: engine})
		tr := mustBegin(t, so)
		for i := 0; i < 10; i++ {
			tw := mustBegin(t, so)
			mustCommit(t, so, CommitRequest{StartTS: tw, WriteSet: rows("x")})
		}
		res := mustCommit(t, so, CommitRequest{StartTS: tr}) // empty sets
		if !res.Committed {
			t.Fatalf("%v: read-only transaction aborted", engine)
		}
		if res.CommitTS != tr {
			t.Fatalf("%v: read-only commit ts = %d, want start ts %d", engine, res.CommitTS, tr)
		}
	}
}

func TestReadOnlyCostsNothing(t *testing.T) {
	so := newOracle(t, Config{Engine: WSI})
	tr := mustBegin(t, so)
	before := so.Stats()
	mustCommit(t, so, CommitRequest{StartTS: tr})
	after := so.Stats()
	if after.ReadOnlyCommits != before.ReadOnlyCommits+1 {
		t.Fatal("read-only commit not counted")
	}
	if after.Commits != before.Commits {
		t.Fatal("read-only commit consumed the write-commit path")
	}
	// No commit timestamp may have been allocated.
	if got := so.tso.Last(); got != tr {
		t.Fatalf("read-only commit consumed a timestamp: last=%d", got)
	}
}

func TestCommitTimestampsIncreaseWithCommitOrder(t *testing.T) {
	so := newOracle(t, Config{Engine: WSI})
	var prev uint64
	for i := 0; i < 10; i++ {
		ts := mustBegin(t, so)
		res := mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: rows(fmt.Sprintf("k%d", i))})
		if !res.Committed {
			t.Fatal("unexpected abort")
		}
		if res.CommitTS <= prev {
			t.Fatalf("commit timestamps not increasing: %d after %d", res.CommitTS, prev)
		}
		if res.CommitTS <= ts {
			t.Fatalf("commit ts %d not after start ts %d", res.CommitTS, ts)
		}
		prev = res.CommitTS
	}
}

func TestFirstCommitterWins(t *testing.T) {
	// Algorithm 1 commits the transaction whose request arrives first.
	so := newOracle(t, Config{Engine: SI})
	t1 := mustBegin(t, so)
	t2 := mustBegin(t, so)
	r2 := mustCommit(t, so, CommitRequest{StartTS: t2, WriteSet: rows("x")})
	r1 := mustCommit(t, so, CommitRequest{StartTS: t1, WriteSet: rows("x")})
	if !r2.Committed || r1.Committed {
		t.Fatalf("first committer must win: r2=%v r1=%v", r2.Committed, r1.Committed)
	}
}

func TestQueryLifecycle(t *testing.T) {
	so := newOracle(t, Config{Engine: WSI})
	ts := mustBegin(t, so)
	if st := so.Query(ts); st.Status != StatusPending {
		t.Fatalf("before commit: %v, want pending", st.Status)
	}
	res := mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: rows("x")})
	st := so.Query(ts)
	if st.Status != StatusCommitted || st.CommitTS != res.CommitTS {
		t.Fatalf("after commit: %+v, want committed@%d", st, res.CommitTS)
	}

	ts2 := mustBegin(t, so)
	if err := so.Abort(ts2); err != nil {
		t.Fatal(err)
	}
	if st := so.Query(ts2); st.Status != StatusAborted {
		t.Fatalf("after abort: %v, want aborted", st.Status)
	}
	so.Forget(ts2)
	if st := so.Query(ts2); st.Status != StatusPending {
		t.Fatalf("after forget: %v, want pending", st.Status)
	}
}

func TestConflictAbortRecorded(t *testing.T) {
	so := newOracle(t, Config{Engine: SI})
	t1 := mustBegin(t, so)
	t2 := mustBegin(t, so)
	mustCommit(t, so, CommitRequest{StartTS: t1, WriteSet: rows("x")})
	mustCommit(t, so, CommitRequest{StartTS: t2, WriteSet: rows("x")}) // aborts
	if st := so.Query(t2); st.Status != StatusAborted {
		t.Fatalf("conflict abort not visible to readers: %v", st.Status)
	}
	if s := so.Stats(); s.ConflictAborts != 1 {
		t.Fatalf("ConflictAborts = %d, want 1", s.ConflictAborts)
	}
}

func TestBoundedMemoryTmaxAbort(t *testing.T) {
	// Algorithm 3: a transaction whose snapshot predates the retained
	// window aborts pessimistically when a checked row is unknown. SI checks
	// the write set, so the stale transaction writes an unseen row; WSI
	// checks the read set, so it reads one.
	for _, tc := range []struct {
		engine Engine
		stale  CommitRequest
	}{
		{SI, CommitRequest{WriteSet: rows("never-seen")}},
		{WSI, CommitRequest{WriteSet: rows("w"), ReadSet: rows("never-seen")}},
	} {
		t.Run(tc.engine.String(), func(t *testing.T) {
			so := newOracle(t, Config{Engine: tc.engine, MaxRows: 4})
			old := mustBegin(t, so)
			// Fill lastCommit well past capacity, evicting early rows.
			for i := 0; i < 20; i++ {
				ts := mustBegin(t, so)
				mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: rows(fmt.Sprintf("fill%d", i))})
			}
			if so.Tmax() == 0 {
				t.Fatal("eviction never advanced Tmax")
			}
			if got := so.RetainedRows(); got > 4 {
				t.Fatalf("retained %d rows, capacity 4", got)
			}
			// lastCommit(r)=null for the checked row and Tmax > Ts(old).
			tc.stale.StartTS = old
			if res := mustCommit(t, so, tc.stale); res.Committed {
				t.Fatal("stale transaction must abort pessimistically (Alg. 3 line 8)")
			}
			if s := so.Stats(); s.TmaxAborts != 1 {
				t.Fatalf("TmaxAborts = %d, want 1", s.TmaxAborts)
			}
		})
	}
}

func TestBoundedMemoryFreshTxnUnaffected(t *testing.T) {
	so := newOracle(t, Config{Engine: SI, MaxRows: 4})
	for i := 0; i < 20; i++ {
		ts := mustBegin(t, so)
		mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: rows(fmt.Sprintf("fill%d", i))})
	}
	// A transaction started after all evictions sees Tmax < Ts.
	fresh := mustBegin(t, so)
	res := mustCommit(t, so, CommitRequest{StartTS: fresh, WriteSet: rows("never-seen")})
	if !res.Committed {
		t.Fatal("fresh transaction wrongly hit the Tmax abort")
	}
}

func TestUnboundedNeverTmaxAborts(t *testing.T) {
	so := newOracle(t, Config{Engine: SI}) // MaxRows = 0
	old := mustBegin(t, so)
	for i := 0; i < 1000; i++ {
		ts := mustBegin(t, so)
		mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: rows(fmt.Sprintf("fill%d", i))})
	}
	res := mustCommit(t, so, CommitRequest{StartTS: old, WriteSet: rows("mine")})
	if !res.Committed {
		t.Fatal("unbounded oracle aborted a conflict-free transaction")
	}
	if so.Tmax() != 0 {
		t.Fatalf("unbounded oracle advanced Tmax to %d", so.Tmax())
	}
}

func TestLastCommitOf(t *testing.T) {
	so := newOracle(t, Config{Engine: SI})
	ts := mustBegin(t, so)
	res := mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: rows("x")})
	got, ok := so.LastCommitOf(HashRow("x"))
	if !ok || got != res.CommitTS {
		t.Fatalf("LastCommitOf = %d,%v want %d,true", got, ok, res.CommitTS)
	}
	if _, ok := so.LastCommitOf(HashRow("never")); ok {
		t.Fatal("LastCommitOf reported an unwritten row")
	}
}

func TestConcurrentCommitsSameRowExactlyOneWins(t *testing.T) {
	// Race N goroutines committing a write to the same row with the same
	// snapshot: exactly one may commit.
	so := newOracle(t, Config{Engine: SI})
	const n = 32
	starts := make([]uint64, n)
	for i := range starts {
		starts[i] = mustBegin(t, so)
	}
	var wg sync.WaitGroup
	committed := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := so.Commit(CommitRequest{StartTS: starts[i], WriteSet: rows("hot")})
			if err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			committed[i] = res.Committed
		}(i)
	}
	wg.Wait()
	wins := 0
	for _, c := range committed {
		if c {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("%d transactions won the same-row race, want exactly 1", wins)
	}
}

// TestPropertyWSISerializableDecisions generates random concurrent
// workloads, lets the WSI oracle decide, and asserts the committed
// subset always satisfies the WSI invariant: no committed transaction read
// a row that another transaction committed during its lifetime.
func TestPropertyWSIInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		so := newOracle(t, Config{Engine: WSI})
		type txn struct {
			start    uint64
			commit   uint64
			read     []RowID
			write    []RowID
			commited bool
		}
		var done []txn
		var live []txn
		for i := 0; i < 100; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				// Commit a random live transaction.
				k := rng.Intn(len(live))
				tx := live[k]
				live = append(live[:k], live[k+1:]...)
				res, err := so.Commit(CommitRequest{StartTS: tx.start, WriteSet: tx.write, ReadSet: tx.read})
				if err != nil {
					return false
				}
				tx.commited = res.Committed
				tx.commit = res.CommitTS
				done = append(done, tx)
				continue
			}
			ts, err := so.Begin()
			if err != nil {
				return false
			}
			tx := txn{start: ts}
			for j := 0; j < 1+rng.Intn(3); j++ {
				tx.read = append(tx.read, RowID(rng.Intn(8)))
			}
			for j := 0; j < 1+rng.Intn(3); j++ {
				tx.write = append(tx.write, RowID(rng.Intn(8)))
			}
			live = append(live, tx)
		}
		// Invariant: for committed i and j, if j wrote r in i's read
		// set and Ts(i) < Tc(j) < Tc(i), the oracle failed.
		for _, i := range done {
			if !i.commited {
				continue
			}
			for _, j := range done {
				if !j.commited || i.start == j.start {
					continue
				}
				if j.commit <= i.start || j.commit >= i.commit {
					continue
				}
				for _, r := range i.read {
					for _, w := range j.write {
						if r == w {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySIInvariant mirrors the WSI property for SI: no two committed
// transactions with temporal overlap share a written row.
func TestPropertySIInvariant(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		so := newOracle(t, Config{Engine: SI})
		type txn struct {
			start, commit uint64
			write         []RowID
			ok            bool
		}
		var done []txn
		var live []txn
		for i := 0; i < 100; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				tx := live[k]
				live = append(live[:k], live[k+1:]...)
				res, err := so.Commit(CommitRequest{StartTS: tx.start, WriteSet: tx.write})
				if err != nil {
					return false
				}
				tx.ok = res.Committed
				tx.commit = res.CommitTS
				done = append(done, tx)
				continue
			}
			ts, err := so.Begin()
			if err != nil {
				return false
			}
			tx := txn{start: ts}
			for j := 0; j < 1+rng.Intn(3); j++ {
				tx.write = append(tx.write, RowID(rng.Intn(8)))
			}
			live = append(live, tx)
		}
		for ii, i := range done {
			if !i.ok {
				continue
			}
			for jj, j := range done {
				if ii == jj || !j.ok {
					continue
				}
				// Temporal overlap (§2): Ts(i) < Tc(j) && Ts(j) < Tc(i).
				if !(i.start < j.commit && j.start < i.commit) {
					continue
				}
				for _, a := range i.write {
					for _, b := range j.write {
						if a == b {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestForgetUnknownIsNoop(t *testing.T) {
	so := newOracle(t, Config{Engine: WSI})
	so.Forget(12345) // must not panic or corrupt state
	ts := mustBegin(t, so)
	if res := mustCommit(t, so, CommitRequest{StartTS: ts, WriteSet: rows("x")}); !res.Committed {
		t.Fatal("commit after spurious Forget failed")
	}
}

func TestHashRowDeterministicAndSpread(t *testing.T) {
	if HashRow("abc") != HashRow("abc") {
		t.Fatal("HashRow not deterministic")
	}
	seen := make(map[RowID]string)
	for i := 0; i < 100000; i++ {
		k := fmt.Sprintf("user%012d", i)
		h := HashRow(k)
		if prev, dup := seen[h]; dup {
			t.Fatalf("collision: %q and %q both hash to %d", prev, k, h)
		}
		seen[h] = k
	}
}

func TestEngineString(t *testing.T) {
	if SI.String() != "SI" || WSI.String() != "WSI" {
		t.Fatal("bad engine strings")
	}
	if Engine(7).String() == "" {
		t.Fatal("unknown engine must render")
	}
}

func TestAbortRateMath(t *testing.T) {
	s := Stats{Commits: 70, ReadOnlyCommits: 10, ConflictAborts: 15, ExplicitAborts: 5}
	if got := s.AbortRate(); got != 0.2 {
		t.Fatalf("AbortRate = %v, want 0.2", got)
	}
	if (Stats{}).AbortRate() != 0 {
		t.Fatal("empty stats AbortRate must be 0")
	}
}

// refFIFO is the plain NR-eviction model: a row map, a FIFO that pops by
// reslicing and never compacts, and the largest evicted key.
type refFIFO struct {
	max     int
	rows    map[uint64]uint64
	queue   [][2]uint64 // key, value
	top     uint64
	evicted int
}

func (f *refFIFO) put(key, val uint64) {
	f.rows[key] = val
	f.queue = append(f.queue, [2]uint64{key, val})
	for len(f.rows) > f.max && len(f.queue) > 0 {
		e := f.queue[0]
		f.queue = f.queue[1:]
		if cur, ok := f.rows[e[0]]; ok && cur == e[1] {
			delete(f.rows, e[0])
			f.evicted++
			if f.top < e[1] {
				f.top = e[1]
			}
		}
	}
}

// TestEvictionFIFOsMatchReference drives lastCommit's row FIFO and the
// commit table's start-timestamp FIFO through many times their capacity of
// evictions, with hot rows written again and again (stale queue entries)
// and rows listed twice in one write set, and checks Tmax, LowWater and the
// retained row count against refFIFO after every batch. Halfway through,
// the oracle is replaced by one restored from its checkpoint, which must
// carry the live windows.
func TestEvictionFIFOsMatchReference(t *testing.T) {
	const maxRows, maxCommits, steps = 8, 8, 400
	so := newOracle(t, Config{Engine: SI, MaxRows: maxRows, MaxCommits: maxCommits})
	lastRow := &refFIFO{max: maxRows, rows: map[uint64]uint64{}}
	table := &refFIFO{max: maxCommits, rows: map[uint64]uint64{}}
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			restored := newOracle(t, Config{Engine: SI, MaxRows: maxRows, MaxCommits: maxCommits, TSO: so.tso})
			restored.applyCheckpoint(so.captureCheckpoint(0))
			so = restored
		}
		reqs := make([]CommitRequest, 1+rng.Intn(4))
		for i := range reqs {
			reqs[i].StartTS = mustBegin(t, so)
			for n := 1 + rng.Intn(4); n > 0; n-- {
				// 24 rows, the first 4 hot: most writes land on a row
				// whose older queue entries are stale.
				r := RowID(rng.Intn(24))
				if rng.Intn(2) == 0 {
					r = RowID(rng.Intn(4))
				}
				reqs[i].WriteSet = append(reqs[i].WriteSet, r)
			}
		}
		res, err := so.CommitBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if !r.Committed {
				continue
			}
			for _, row := range reqs[i].WriteSet {
				lastRow.put(uint64(row), r.CommitTS)
			}
			table.put(reqs[i].StartTS, reqs[i].StartTS)
		}
		if got, want := so.Tmax(), lastRow.top; got != want {
			t.Fatalf("step %d: Tmax %d, reference %d", step, got, want)
		}
		if got, want := so.LowWater(), table.top; got != want {
			t.Fatalf("step %d: LowWater %d, reference %d", step, got, want)
		}
		if got, want := so.RetainedRows(), len(lastRow.rows); got != want {
			t.Fatalf("step %d: %d rows retained, reference %d", step, got, want)
		}
	}
	if lastRow.evicted <= 3*maxRows || table.evicted <= 3*maxCommits {
		t.Fatalf("only %d row and %d commit evictions", lastRow.evicted, table.evicted)
	}
}
