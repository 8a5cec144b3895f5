package partition

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/oracle"
)

// rebalanceSpan sizes the test clusters' load histogram: 64 buckets of 100
// rows each.
const rebalanceSpan = 64 * 100

type recordedMove struct {
	lo, hi   uint64
	from, to int
}

// elasticPair builds a 2-partition elastic cluster (all rows on partition 0)
// plus an unstarted rebalancer driven by Tick, recording every move.
func elasticPair(t *testing.T, cfg RebalanceConfig) (*LocalCluster, *Rebalancer, *[]recordedMove) {
	t.Helper()
	rm, err := NewSingleOwnerRangeMap(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := NewLocal(LocalConfig{
		Partitions: 2,
		Engine:     oracle.SI,
		Router:     rm,
		LoadSpan:   rebalanceSpan,
	})
	if err != nil {
		t.Fatal(err)
	}
	var moves []recordedMove
	cfg.LoadSpan = rebalanceSpan
	cfg.OnMove = func(lo, hi uint64, from, to int) {
		moves = append(moves, recordedMove{lo, hi, from, to})
	}
	return lc, NewRebalancer(lc.Coordinator, cfg), &moves
}

// burn commits n single-row write transactions against each given row.
func burn(t *testing.T, co *Coordinator, n int, rows ...uint64) {
	t.Helper()
	for i := 0; i < n; i++ {
		for _, r := range rows {
			ts, err := co.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := co.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(r)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// routedCommits runs burn and returns how many of its commits each
// partition's oracle decided.
func routedCommits(t *testing.T, lc *LocalCluster, n int, rows ...uint64) []int64 {
	t.Helper()
	got := make([]int64, len(lc.Partitions))
	for p, so := range lc.Partitions {
		got[p] = -so.Stats().Commits
	}
	burn(t, lc.Coordinator, n, rows...)
	for p, so := range lc.Partitions {
		got[p] += so.Stats().Commits
	}
	return got
}

// TestRebalancerMovesHotRange: a static single-owner table sends every commit
// to partition 0; after the rebalancer moves one of two equally hot buckets,
// the same load splits evenly across both partitions.
func TestRebalancerMovesHotRange(t *testing.T) {
	lc, rb, moves := elasticPair(t, RebalanceConfig{MinLoad: 10, MinImbalance: 1.5})
	co := lc.Coordinator
	epoch0 := co.Routing().Epoch

	rb.Tick() // first sample establishes the baseline

	// Equal heat in buckets 2 (rows 200..299) and 10 (rows 1000..1099):
	// exactly one of them fits under the half-gap target and moves.
	if got := routedCommits(t, lc, 50, 250, 1050); got[0] != 100 || got[1] != 0 {
		t.Fatalf("commits per partition before the move = %v, want [100 0]", got)
	}
	rb.Tick()

	if len(*moves) != 1 {
		t.Fatalf("moves = %+v, want exactly one", *moves)
	}
	mv := (*moves)[0]
	if mv.from != 0 || mv.to != 1 {
		t.Fatalf("move %+v, want 0 -> 1", mv)
	}
	if !(mv.lo == 200 && mv.hi == 300) && !(mv.lo == 1000 && mv.hi == 1100) {
		t.Fatalf("move %+v covers neither hot bucket", mv)
	}
	if rb.Moves() != 1 {
		t.Fatalf("Moves() = %d", rb.Moves())
	}
	// The routing table flipped under a new epoch and routes the moved
	// bucket to the receiver.
	if e := co.Routing().Epoch; e <= epoch0 {
		t.Fatalf("routing epoch %d not above %d after move", e, epoch0)
	}
	if p := co.Router().Partition(oracle.RowID(mv.lo)); p != 1 {
		t.Fatalf("moved row routes to %d", p)
	}

	// Re-baseline after the move: the next tick only samples; the tick
	// after sees both partitions equally hot and holds still.
	rb.Tick()
	if got := routedCommits(t, lc, 50, 250, 1050); got[0] != 50 || got[1] != 50 {
		t.Fatalf("commits per partition after the move = %v, want [50 50]", got)
	}
	rb.Tick()
	if len(*moves) != 1 {
		t.Fatalf("balanced cluster kept moving: %+v", *moves)
	}
}

func TestRebalancerGuards(t *testing.T) {
	t.Run("MinLoad", func(t *testing.T) {
		lc, rb, moves := elasticPair(t, RebalanceConfig{MinLoad: 1000, MinImbalance: 1.5})
		rb.Tick()
		burn(t, lc.Coordinator, 20, 250, 1050) // 40 ops, well under MinLoad
		rb.Tick()
		if len(*moves) != 0 {
			t.Fatalf("idle cluster rebalanced: %+v", *moves)
		}
	})
	t.Run("DominantBucket", func(t *testing.T) {
		// All heat in one bucket: it alone exceeds the half-gap target, so
		// no assignment reduces the imbalance and nothing may move (moving
		// it would just invert the imbalance and ping-pong forever).
		lc, rb, moves := elasticPair(t, RebalanceConfig{MinLoad: 10, MinImbalance: 1.5})
		rb.Tick()
		burn(t, lc.Coordinator, 100, 250)
		rb.Tick()
		if len(*moves) != 0 {
			t.Fatalf("dominant bucket moved: %+v", *moves)
		}
	})
	t.Run("MinImbalance", func(t *testing.T) {
		lc, rb, moves := elasticPair(t, RebalanceConfig{MinLoad: 10, MinImbalance: 1.5})
		co := lc.Coordinator
		// Spread buckets 2 and 10 across the partitions first.
		rb.Tick()
		burn(t, co, 50, 250, 1050)
		rb.Tick()
		if len(*moves) != 1 {
			t.Fatalf("setup move missing: %+v", *moves)
		}
		// Now a mild 1.4x skew (two hot buckets on p0, 50+20 vs 50): below
		// MinImbalance, the controller treats it as noise.
		rb.Tick()
		burn(t, co, 50, 250, 1050)
		burn(t, co, 20, 450)
		rb.Tick()
		if len(*moves) != 1 {
			t.Fatalf("noise-level skew triggered a move: %+v", *moves)
		}
	})
}

// TestRebalanceLiveSplitChaos hammers an elastic cluster with committers
// while ranges migrate underneath them, then audits every acknowledged
// commit: none may be lost (aborted) or invisible (unknown) afterwards. Run
// under -race this is the tentpole's safety gate.
func TestRebalanceLiveSplitChaos(t *testing.T) {
	const (
		partitions = 4
		workers    = 4
		duration   = 300 * time.Millisecond
	)
	rm, err := NewSingleOwnerRangeMap(partitions, 0)
	if err != nil {
		t.Fatal(err)
	}
	lc, err := NewLocal(LocalConfig{
		Partitions: partitions,
		Engine:     oracle.WSI,
		Router:     rm,
		LoadSpan:   rebalanceSpan,
	})
	if err != nil {
		t.Fatal(err)
	}
	co := lc.Coordinator

	type acked struct{ start, commit uint64 }
	ackedBy := make([][]acked, workers)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ts, err := co.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				req := oracle.CommitRequest{StartTS: ts}
				for n := 1 + rng.Intn(3); n > 0; n-- {
					req.WriteSet = append(req.WriteSet, oracle.RowID(rng.Intn(rebalanceSpan)))
				}
				res, err := co.Commit(req)
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if res.Committed {
					ackedBy[w] = append(ackedBy[w], acked{ts, res.CommitTS})
				}
			}
		}(w)
	}

	// Migration storm: move random bucket-aligned ranges between random
	// partitions while the committers run.
	var moveCount int
	mover := rand.New(rand.NewSource(99))
	deadline := time.Now().Add(duration)
	for time.Now().Before(deadline) {
		b := mover.Intn(oracle.LoadBuckets)
		width := 1 + mover.Intn(4)
		lo, _ := oracle.LoadBucketRange(rebalanceSpan, b)
		last := b + width - 1
		if last >= oracle.LoadBuckets {
			last = oracle.LoadBuckets - 1
		}
		_, hi := oracle.LoadBucketRange(rebalanceSpan, last)
		if err := co.MoveRange(lo, hi, mover.Intn(partitions)); err == nil {
			moveCount++
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if moveCount == 0 {
		t.Fatal("no migration completed; chaos test exercised nothing")
	}

	var all []acked
	for _, a := range ackedBy {
		all = append(all, a...)
	}
	if len(all) == 0 {
		t.Fatal("no commit was acknowledged")
	}
	starts := make([]uint64, len(all))
	for i, a := range all {
		starts[i] = a.start
	}
	sts := co.QueryBatch(starts)
	lost, invisible := 0, 0
	for i, st := range sts {
		switch {
		case st.Status == oracle.StatusCommitted && st.CommitTS == all[i].commit:
		case st.Status == oracle.StatusAborted:
			lost++
		default:
			invisible++
		}
	}
	if lost != 0 || invisible != 0 {
		t.Fatalf("%d acked commits lost, %d invisible (of %d acked, %d moves)",
			lost, invisible, len(all), moveCount)
	}
	t.Logf("chaos: %d acked commits audited across %d live migrations", len(all), moveCount)
}
