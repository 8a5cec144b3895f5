package txn

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/tso"
)

func TestCommitAsyncBasic(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	tx := begin(t, c)
	if err := tx.Put("a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	out := <-tx.CommitAsync()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !out.Committed || out.CommitTS == 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if !tx.Committed() || tx.CommitTS() != out.CommitTS {
		t.Fatalf("txn state: committed=%v ts=%d, outcome ts=%d", tx.Committed(), tx.CommitTS(), out.CommitTS)
	}
	// The write must be visible to a later transaction.
	r := begin(t, c)
	v, ok, err := r.Get("a")
	if err != nil || !ok || string(v) != "1" {
		t.Fatalf("Get after async commit = %q %v %v", v, ok, err)
	}
}

func TestCommitAsyncConflict(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	t1 := begin(t, c)
	t2 := begin(t, c)
	if _, _, err := t2.Get("x"); err != nil {
		t.Fatal(err)
	}
	if err := t2.Put("y", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Put("x", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if out := <-t1.CommitAsync(); out.Err != nil {
		t.Fatal(out.Err)
	}
	out := <-t2.CommitAsync()
	if !errors.Is(out.Err, ErrConflict) {
		t.Fatalf("outcome err = %v, want ErrConflict", out.Err)
	}
	if out.Committed || t2.Committed() {
		t.Fatal("conflicted transaction marked committed")
	}
}

func TestCommitAsyncPipelinesManyCommits(t *testing.T) {
	clock := tso.New(0, nil)
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	store := kvstore.New(kvstore.Config{})
	c, err := NewClient(store, so, Config{
		CommitBatchSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// One goroutine keeps 64 disjoint-key commits in flight.
	const n = 64
	futures := make([]<-chan CommitOutcome, n)
	txns := make([]*Txn, n)
	for i := 0; i < n; i++ {
		tx := begin(t, c)
		if err := tx.Put(fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
		txns[i] = tx
		futures[i] = tx.CommitAsync()
	}
	seen := make(map[uint64]bool, n)
	for i, f := range futures {
		out := <-f
		if out.Err != nil {
			t.Fatalf("commit %d: %v", i, out.Err)
		}
		if seen[out.CommitTS] {
			t.Fatalf("commit timestamp %d assigned twice", out.CommitTS)
		}
		seen[out.CommitTS] = true
	}
	st := so.Stats()
	if st.Commits != n {
		t.Fatalf("Commits = %d, want %d", st.Commits, n)
	}
	if st.Batches >= n {
		t.Fatalf("pipeliner produced %d batches for %d commits — nothing coalesced", st.Batches, n)
	}
	if st.BatchSizeAvg <= 1 {
		t.Fatalf("BatchSizeAvg = %v, want > 1", st.BatchSizeAvg)
	}
}

func TestCommitAsyncReadOnlyImmediate(t *testing.T) {
	_, so, c := newStack(t, oracle.WSI, Config{})
	tx := begin(t, c)
	if _, _, err := tx.Get("nothing"); err != nil {
		t.Fatal(err)
	}
	out := <-tx.CommitAsync()
	if out.Err != nil || !out.Committed {
		t.Fatalf("outcome = %+v", out)
	}
	if out.CommitTS != tx.StartTS() {
		t.Fatalf("read-only commit ts = %d, want snapshot %d", out.CommitTS, tx.StartTS())
	}
	if st := so.Stats(); st.Batches != 0 {
		t.Fatalf("read-only async commit cut a batch: %+v", st)
	}
}

func TestCommitAsyncOnFinishedTxn(t *testing.T) {
	_, _, c := newStack(t, oracle.WSI, Config{})
	tx := begin(t, c)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if out := <-tx.CommitAsync(); !errors.Is(out.Err, ErrClosed) {
		t.Fatalf("outcome err = %v, want ErrClosed", out.Err)
	}
}

func TestCommitAsyncAfterClose(t *testing.T) {
	clock := tso.New(0, nil)
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	store := kvstore.New(kvstore.Config{})
	c, err := NewClient(store, so, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if out := <-tx.CommitAsync(); !errors.Is(out.Err, ErrClientClosed) {
		t.Fatalf("outcome err = %v, want ErrClientClosed", out.Err)
	}
}

// TestCommitAsyncConcurrentClients hammers the pipeliner from many
// goroutines under the race detector.
func TestCommitAsyncConcurrentClients(t *testing.T) {
	clock := tso.New(0, nil)
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	store := kvstore.New(kvstore.Config{})
	c, err := NewClient(store, so, Config{CommitBatchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const goroutines, per = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tx, err := c.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				if err := tx.Put(fmt.Sprintf("g%d-k%d", g, i), []byte("v")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if out := <-tx.CommitAsync(); out.Err != nil {
					t.Errorf("commit: %v", out.Err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if st := so.Stats(); st.Commits != goroutines*per {
		t.Fatalf("Commits = %d, want %d", st.Commits, goroutines*per)
	}
}
