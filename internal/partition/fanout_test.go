package partition

import (
	"errors"
	"testing"

	"repro/internal/oracle"
	"repro/internal/tso"
)

var errCommitDown = errors.New("commit path down")

// commitFault fails a partition's one-shot CommitBatch and passes every
// other call through.
type commitFault struct {
	Backend
}

func (commitFault) CommitBatch([]oracle.CommitRequest) ([]oracle.CommitResult, error) {
	return nil, errCommitDown
}

// TestCommitBatchFanOutErrors: a batch with a one-shot request on each of
// two partitions and one cross-partition request is three fanOut units —
// partition 0's group on the caller's goroutine, then partition 1's group
// and the two-phase round on their own. Whichever unit fails, CommitBatch
// returns its error only after every other unit has finished: the healthy
// group committed, the round decided on both partitions (no prepare left
// parked), and nothing left for DrainDecides or Close to wait on.
func TestCommitBatchFanOutErrors(t *testing.T) {
	for _, c := range []struct {
		name    string
		fault   func(p0, p1 Backend) (Backend, Backend)
		want    error
		healthy int // the partition whose one-shot request must commit, or -1
	}{
		{"caller-unit", func(p0, p1 Backend) (Backend, Backend) { return commitFault{p0}, p1 }, errCommitDown, 1},
		{"spawned-group", func(p0, p1 Backend) (Backend, Backend) { return p0, commitFault{p1} }, errCommitDown, 0},
		{"spawned-round", func(p0, p1 Backend) (Backend, Backend) { return publishFault{Backend: p0, unpublished: true}, p1 }, nil, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			clock := tso.New(0, nil)
			parts := make([]*oracle.StatusOracle, 2)
			for i := range parts {
				so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
				if err != nil {
					t.Fatal(err)
				}
				parts[i] = so
			}
			b0, b1 := c.fault(Local{parts[0]}, Local{parts[1]})
			co, err := NewCoordinator(Config{
				Engine:    oracle.WSI,
				Router:    NewEvenRangeRouter(2, 100),
				Backends:  []Backend{b0, b1},
				SharedTSO: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			// Rows below 50 live on partition 0, the others on partition 1.
			writes := [][]oracle.RowID{{10}, {60}, {20, 70}}
			reqs := make([]oracle.CommitRequest, len(writes))
			for i, ws := range writes {
				ts, err := co.Begin()
				if err != nil {
					t.Fatal(err)
				}
				reqs[i] = oracle.CommitRequest{StartTS: ts, WriteSet: ws}
			}
			res, err := co.CommitBatch(reqs)
			if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
				t.Fatalf("CommitBatch = %v, %v; want error %v", res, err, c.want)
			}
			if c.healthy >= 0 {
				if st := parts[c.healthy].Query(reqs[c.healthy].StartTS); st.Status != oracle.StatusCommitted {
					t.Fatalf("partition %d's one-shot request answers %+v, want committed", c.healthy, st)
				}
			}
			for p, so := range parts {
				if n := so.PreparedCount(); n != 0 {
					t.Fatalf("partition %d holds %d prepares after the call returned", p, n)
				}
			}
			if err := co.DrainDecides(); err != nil {
				t.Fatalf("DrainDecides: %v", err)
			}
			co.Close()
		})
	}
}

// TestNewCoordinatorRefusesMoreThan64Partitions: a partition set is one
// uint64 bitmask.
func TestNewCoordinatorRefusesMoreThan64Partitions(t *testing.T) {
	for _, n := range []int{64, 65} {
		so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
		if err != nil {
			t.Fatal(err)
		}
		backends := make([]Backend, n)
		for i := range backends {
			backends[i] = Local{so}
		}
		_, err = NewCoordinator(Config{Engine: oracle.WSI, Backends: backends})
		if (err == nil) != (n <= 64) {
			t.Fatalf("NewCoordinator over %d partitions: err = %v", n, err)
		}
	}
}
