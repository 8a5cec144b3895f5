package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/txn"
)

func newSystem(t *testing.T, opts Options) *System {
	t.Helper()
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestQuickstartFlow(t *testing.T) {
	sys := newSystem(t, Options{Engine: WSI})
	tx, err := sys.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.Put("greeting", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := sys.Begin()
	v, ok, err := tx2.Get("greeting")
	if err != nil || !ok || string(v) != "hello" {
		t.Fatalf("get = %q,%v,%v", v, ok, err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestIsConflict(t *testing.T) {
	if !IsConflict(txn.ErrConflict) {
		t.Fatal("IsConflict misses ErrConflict")
	}
	if IsConflict(errors.New("other")) {
		t.Fatal("IsConflict false positive")
	}
}

// TestBankInvariantUnderWSI runs the paper's §3.1 constraint scenario with
// many concurrent withdrawing goroutines: under WSI the invariant
// x + y > 0 must hold at the end; retrying conflicts is the application's
// job.
func TestBankInvariantUnderWSI(t *testing.T) {
	sys := newSystem(t, Options{Engine: WSI, Durable: true})
	seed, _ := sys.Begin()
	seed.Put("x", []byte("100"))
	seed.Put("y", []byte("100"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	withdraw := func(from string) error {
		tx, err := sys.Begin()
		if err != nil {
			return err
		}
		xb, _, err := tx.Get("x")
		if err != nil {
			return err
		}
		yb, _, err := tx.Get("y")
		if err != nil {
			return err
		}
		x, y := atoi(xb), atoi(yb)
		if x+y <= 1 {
			return tx.Abort()
		}
		if from == "x" {
			tx.Put("x", itoa(x-1))
		} else {
			tx.Put("y", itoa(y-1))
		}
		return tx.Commit()
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				from := "x"
				if rng.Intn(2) == 0 {
					from = "y"
				}
				err := withdraw(from)
				if err != nil && !IsConflict(err) {
					t.Errorf("withdraw: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	check, _ := sys.Begin()
	xb, _, _ := check.Get("x")
	yb, _, _ := check.Get("y")
	if atoi(xb)+atoi(yb) <= 0 {
		t.Fatalf("constraint violated: x=%s y=%s", xb, yb)
	}
	check.Commit()
}

func atoi(b []byte) int {
	n := 0
	neg := false
	for i, c := range b {
		if i == 0 && c == '-' {
			neg = true
			continue
		}
		n = n*10 + int(c-'0')
	}
	if neg {
		return -n
	}
	return n
}

func itoa(n int) []byte { return []byte(fmt.Sprintf("%d", n)) }

// TestCrashRecoveryEndToEnd commits through the full durable stack, crashes
// the oracle, recovers from the replicated log, and checks both data
// visibility and conflict state.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	sys := newSystem(t, Options{Engine: WSI, Durable: true})
	tx, _ := sys.Begin()
	tx.Put("persisted", []byte("yes"))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A transaction left in flight at the crash.
	orphan, _ := sys.Begin()
	orphan.Put("orphan", []byte("tentative"))

	sys.FlushWAL()
	recovered, err := Recover(sys, Options{Engine: WSI})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()

	r, _ := recovered.Begin()
	v, ok, err := r.Get("persisted")
	if err != nil || !ok || string(v) != "yes" {
		t.Fatalf("committed data lost across recovery: %q,%v,%v", v, ok, err)
	}
	// The orphan's tentative write must be invisible.
	if _, ok, _ := r.Get("orphan"); ok {
		t.Fatal("in-flight write visible after recovery")
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}

	// New work proceeds with fresh, non-overlapping timestamps.
	w, _ := recovered.Begin()
	if w.StartTS() <= tx.CommitTS() {
		t.Fatalf("recovered timestamps overlap: %d <= %d", w.StartTS(), tx.CommitTS())
	}
	w.Put("after", []byte("recovery"))
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverRequiresDurableSystem(t *testing.T) {
	sys := newSystem(t, Options{Engine: WSI})
	if _, err := Recover(sys, Options{}); err == nil {
		t.Fatal("recovering a non-durable system must fail")
	}
}

func TestEnginesDifferOnWriteSkew(t *testing.T) {
	runSkew := func(e Engine) (bothCommitted bool) {
		sys := newSystem(t, Options{Engine: e})
		seed, _ := sys.Begin()
		seed.Put("x", []byte("1"))
		seed.Put("y", []byte("1"))
		if err := seed.Commit(); err != nil {
			t.Fatal(err)
		}
		t1, _ := sys.Begin()
		t2, _ := sys.Begin()
		t1.Get("x")
		t1.Get("y")
		t2.Get("x")
		t2.Get("y")
		t1.Put("x", []byte("0"))
		t2.Put("y", []byte("0"))
		e1 := t1.Commit()
		e2 := t2.Commit()
		return e1 == nil && e2 == nil
	}
	if !runSkew(SI) {
		t.Fatal("SI should admit write skew")
	}
	if runSkew(WSI) {
		t.Fatal("WSI must reject write skew")
	}
}

// TestBoundedCommitTableKeepsAckedCommitVisible: once the bounded commit
// table has evicted a writer, the oracle answers StatusUnknown for it; the
// reader must still see the acked commit. core derives write-back from
// MaxCommits > 0 (the committer stamped the version before its ack) rather
// than leaving the one sound mode to the caller.
func TestBoundedCommitTableKeepsAckedCommitVisible(t *testing.T) {
	sys := newSystem(t, Options{Engine: WSI, MaxCommits: 4})
	put := func(key string) {
		t.Helper()
		tx, err := sys.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.Put(key, []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %s: %v", key, err)
		}
	}
	put("victim")
	for i := 0; i < 16; i++ {
		put(fmt.Sprintf("other%02d", i))
	}
	r, err := sys.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Commit()
	if v, ok, err := r.Get("victim"); err != nil || !ok || string(v) != "v" {
		t.Fatalf("acked commit evicted from the commit table is invisible: v=%q ok=%v err=%v", v, ok, err)
	}
}

func TestBoundedSystemOptions(t *testing.T) {
	sys := newSystem(t, Options{
		Engine:     WSI,
		MaxRows:    8,
		MaxCommits: 8,
		Shards:     4,
	})
	for i := 0; i < 50; i++ {
		tx, _ := sys.Begin()
		tx.Put(fmt.Sprintf("k%03d", i), []byte("v"))
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	r, _ := sys.Begin()
	for i := 0; i < 50; i++ {
		if _, ok, err := r.Get(fmt.Sprintf("k%03d", i)); err != nil || !ok {
			t.Fatalf("k%03d lost under bounded config: %v", i, err)
		}
	}
	r.Commit()
	if sys.Oracle.RetainedRows() > 8 {
		t.Fatalf("MaxRows not honored: %d", sys.Oracle.RetainedRows())
	}
}

func TestFacadeGCAndTimeTravel(t *testing.T) {
	sys := newSystem(t, Options{Engine: WSI})
	t1, _ := sys.Begin()
	t1.Put("k", []byte("v1"))
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	mid := t1.CommitTS() + 1
	t2, _ := sys.Begin()
	t2.Put("k", []byte("v2"))
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
	// Time travel to between the commits.
	old := sys.BeginAt(mid)
	if v, _, _ := old.Get("k"); string(v) != "v1" {
		t.Fatalf("time travel = %q, want v1", v)
	}
	old.Commit()
	// GC reclaims the superseded version; the time-travel snapshot is
	// gone afterwards (documented coordination requirement).
	n, err := sys.GC()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("GC reclaimed %d, want 1", n)
	}
	now, _ := sys.Begin()
	if v, _, _ := now.Get("k"); string(v) != "v2" {
		t.Fatalf("current read after GC = %q", v)
	}
	now.Commit()
}

func TestStatsSurface(t *testing.T) {
	sys := newSystem(t, Options{Engine: WSI})
	tx, _ := sys.Begin()
	tx.Put("k", []byte("v"))
	tx.Commit()
	if s := sys.Stats(); s.Commits != 1 || s.Begins != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestConcurrentCommitsDurable drives the durable commit path through the
// facade: many goroutines committing on one durable system at once, then
// crash recovery, which must reproduce every acknowledged commit at its
// commit timestamp.
func TestConcurrentCommitsDurable(t *testing.T) {
	sys := newSystem(t, Options{Engine: WSI, Durable: true})
	const n = 48
	startTS := make([]uint64, n)
	commitTS := make([]uint64, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx, err := sys.Begin()
			if err != nil {
				errs <- err
				return
			}
			if err := tx.Put(fmt.Sprintf("acct%02d", i), []byte("100")); err != nil {
				errs <- err
				return
			}
			if err := tx.Commit(); err != nil {
				errs <- fmt.Errorf("commit %d: %w", i, err)
				return
			}
			startTS[i], commitTS[i] = tx.StartTS(), tx.CommitTS()
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := sys.Stats(); st.Commits != n {
		t.Fatalf("%d commits in stats, want %d: %+v", st.Commits, n, st)
	}
	seen := make(map[uint64]bool, n)
	for i, ts := range commitTS {
		if ts <= startTS[i] || seen[ts] {
			t.Fatalf("commit %d: commit timestamp %d (start %d) is not fresh and unique", i, ts, startTS[i])
		}
		seen[ts] = true
	}

	sys.FlushWAL()
	recovered, err := Recover(sys, Options{Engine: WSI})
	if err != nil {
		t.Fatal(err)
	}
	defer recovered.Close()
	for i := range startTS {
		if st := recovered.Oracle.Query(startTS[i]); st.CommitTS != commitTS[i] {
			t.Fatalf("recovered commit %d = %+v, want committed at %d", i, st, commitTS[i])
		}
	}
	tx, err := recovered.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		v, ok, err := tx.Get(fmt.Sprintf("acct%02d", i))
		if err != nil || !ok || string(v) != "100" {
			t.Fatalf("recovered acct%02d = %q,%v,%v", i, v, ok, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}
