package netsrv

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// gatedServer is a coalescing server over a durable oracle whose one ledger
// holds every append until the test releases it: AppendBatch announces
// itself on entered and proceeds, or fails, with the value sent on release.
// A held append holds the commit batch that caused it in its decide, which
// is what parks later arrivals in the self-clocked coalescer. The timestamp
// oracle is not durable, so Begin never touches the ledger.
type gatedServer struct {
	srv     *Server
	addr    string
	so      *oracle.StatusOracle
	ledger  *wal.MemLedger
	entered chan struct{}
	release chan error
}

func startGatedServer(t *testing.T, ingress *IngressConfig, coalesce int) *gatedServer {
	t.Helper()
	g := &gatedServer{
		ledger:  wal.NewMemLedger(),
		entered: make(chan struct{}),
		release: make(chan error),
	}
	open := make(chan struct{}) // closed at cleanup so a failed test cannot hang Close
	g.ledger.FailAppend = func() error {
		select {
		case g.entered <- struct{}{}:
		case <-open:
			return nil
		}
		select {
		case err := <-g.release:
			return err
		case <-open:
			return nil
		}
	}
	w, err := wal.NewWriter(wal.Config{}, g.ledger)
	if err != nil {
		t.Fatal(err)
	}
	g.so, err = oracle.New(oracle.Config{Engine: oracle.WSI, WAL: w, TSO: tso.New(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	g.srv = NewServer(g.so)
	g.srv.Logf = nil
	g.srv.Ingress = ingress
	g.srv.CoalesceMaxBatch = coalesce
	if g.addr, err = g.srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(open)
		g.srv.Close()
		w.Close()
	})
	return g
}

// gateState is what the admission gate, the coalescer and the oracle can
// tell a test about where requests are.
type gateState struct {
	admitted  int   // requests ever admitted, begins included
	shed      int   // requests ever refused for a full queue
	waiting   int   // parked in an admission queue now
	inflight  int   // holding a slot now
	coalesced int   // commits the coalescer's loop has ever taken in
	logged    int64 // commits decided and answered by the ledger
}

// settle waits until the server reaches a state the test accepts.
func (g *gatedServer) settle(t *testing.T, ok func(gateState) bool) {
	t.Helper()
	waitCond(t, func() bool {
		a := g.srv.adm
		admitted, shed, _, _ := a.totals()
		st := gateState{admitted: int(admitted), shed: int(shed), logged: g.so.Stats().Commits,
			coalesced: int(g.srv.coal.Load().b.Accepted())}
		a.mu.Lock()
		defer a.mu.Unlock()
		st.inflight = a.inflight
		for i := range a.tenants {
			st.waiting += a.tenants[i].waiting
		}
		return ok(st)
	})
}

// releaseUntil releases the append being held and every later one, after
// hold() if given, until done closes; it returns how many it released.
func (g *gatedServer) releaseUntil(done <-chan struct{}, hold func()) int {
	for n := 0; ; n++ {
		if hold != nil {
			hold()
		}
		g.release <- nil
		select {
		case <-g.entered:
		case <-done:
			return n + 1
		}
	}
}

func (g *gatedServer) begins(t *testing.T, s *Session, n int) []uint64 {
	t.Helper()
	tss := make([]uint64, n)
	for i := range tss {
		var err error
		if tss[i], err = s.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	return tss
}

// TestGroupCommitCoalescerMergesWhileBusy: the first commit on an idle
// server is decided and logged alone; commits that arrive while its ledger
// append is held are parked, not decided one by one, and share the next
// oracle batch and ledger write. Every decision still matches WSI
// disjoint-row semantics.
func TestGroupCommitCoalescerMergesWhileBusy(t *testing.T) {
	g := startGatedServer(t, &IngressConfig{}, 64)
	m, err := DialMux(g.addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.Session(0)
	const n = 16
	tss := g.begins(t, s, n)

	var wg sync.WaitGroup
	commit := func(i int) {
		defer wg.Done()
		row := oracle.RowID(1000 + i)
		res, err := s.Commit(oracle.CommitRequest{StartTS: tss[i], WriteSet: []oracle.RowID{row}, ReadSet: []oracle.RowID{row}})
		if err != nil || !res.Committed {
			t.Errorf("disjoint-row commit %d = %+v, %v", i, res, err)
		}
	}
	wg.Add(1)
	go commit(0)
	<-g.entered // idle server: no timer, the arrival itself cut the batch
	for i := 1; i < n; i++ {
		wg.Add(1)
		go commit(i)
	}
	g.settle(t, func(st gateState) bool { return st.coalesced == n })
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	appends := g.releaseUntil(done, nil)

	st := g.so.Stats()
	if st.Commits != n {
		t.Fatalf("Commits = %d, want %d", st.Commits, n)
	}
	if nb, _ := g.ledger.NumBatches(); st.Batches != 2 || nb != 2 || appends != 2 {
		t.Fatalf("%d oracle batches, %d ledger batches, %d appends for %d commits around one held append, want 2 of each", st.Batches, nb, appends, n)
	}
}

// TestGroupCommitDeadlineExpiresInCoalescer parks a commit in the coalescer
// behind a decide held in flight until its deadline has passed: the batcher
// must drop it at the cut (codeExpired on the wire), it must never reach
// the oracle, and the server must count it.
func TestGroupCommitDeadlineExpiresInCoalescer(t *testing.T) {
	g := startGatedServer(t, &IngressConfig{}, 64)
	m, err := DialMux(g.addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	holder, doomed := m.Session(0), m.Session(0)
	tss := g.begins(t, holder, 2)

	held := make(chan error, 1)
	go func() {
		_, err := holder.Commit(oracle.CommitRequest{StartTS: tss[0], WriteSet: []oracle.RowID{1}})
		held <- err
	}()
	<-g.entered

	const budget = 5 * time.Millisecond
	if err := doomed.SetDeadline(budget); err != nil {
		t.Fatal(err)
	}
	expired := make(chan error, 1)
	go func() {
		_, err := doomed.Commit(oracle.CommitRequest{StartTS: tss[1], WriteSet: []oracle.RowID{2}})
		expired <- err
	}()
	// Admitted with budget to spare, parked behind the held decide.
	g.settle(t, func(st gateState) bool { return st.coalesced == 2 })
	<-time.After(budget)
	g.release <- nil
	if err := <-held; err != nil {
		t.Fatalf("held commit: %v", err)
	}
	if err := <-expired; !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("parked-past-deadline commit error = %v, want ErrDeadlineExceeded", err)
	}
	if _, _, _, n := g.srv.adm.totals(); n != 1 {
		t.Fatalf("ingress expired counter = %d, want 1", n)
	}
	// The dropped commit was never decided, nor logged.
	st, err := holder.Query(tss[1])
	if err != nil {
		t.Fatal(err)
	}
	if st.Status == oracle.StatusCommitted {
		t.Fatalf("expired commit was decided anyway: %+v", st)
	}
	if nb, _ := g.ledger.NumBatches(); nb != 1 {
		t.Fatalf("%d ledger batches, want 1: expired work must not reach the log", nb)
	}
}

// TestGroupCommitIngressHandOff is the PR 7 sizing finding as a test. Behind
// a gate of 8 slots, commits reach the coalescer one slot hand-off at a
// time; a batcher that cuts on anything but back-pressure turns that trickle
// into one ledger write per commit. Here every append is held until the gate
// has let in all it can: what trickled in meanwhile must ride the next
// append together.
func TestGroupCommitIngressHandOff(t *testing.T) {
	const sessions, slots = 64, 8
	g := startGatedServer(t, &IngressConfig{MaxInflight: slots, QueueCap: sessions}, 64)
	m, err := DialMux(g.addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	tss := g.begins(t, m.Session(0), sessions)

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(s *Session, i int) {
			defer wg.Done()
			res, err := s.Commit(oracle.CommitRequest{StartTS: tss[i], WriteSet: []oracle.RowID{oracle.RowID(i + 1)}})
			if err != nil || !res.Committed {
				t.Errorf("commit %d = %+v, %v", i, res, err)
			}
		}(m.Session(0), i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Hold every append until all commits have reached the gate, every
	// commit the ledger has answered has given its slot back, the gate has
	// handed out every slot it can and every commit it let in is parked in
	// the coalescer: whoever is going to trickle in during this append has.
	<-g.entered
	releases := g.releaseUntil(done, func() {
		g.settle(t, func(st gateState) bool {
			commits := st.admitted - sessions // the begins were admitted first
			return commits+st.waiting == sessions && st.coalesced == commits &&
				int(st.logged) == commits-st.inflight &&
				(st.inflight == slots || st.waiting == 0)
		})
	})
	t.Logf("%d ledger writes for %d commits", releases, sessions)
	if nb, _ := g.ledger.NumBatches(); nb != releases {
		t.Fatalf("%d ledger batches after %d releases", nb, releases)
	}
	// An append and the one after it carry at least a gate's worth between
	// them: what was parked behind the first rides the second. So at most
	// 2 x sessions/slots = 16 writes; one write per commit would be 64.
	if releases > 2*sessions/slots {
		t.Fatalf("%d ledger writes for %d commits behind %d slots: the hand-off trickle is not being grouped", releases, sessions, slots)
	}
}
