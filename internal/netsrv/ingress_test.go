package netsrv

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/tso"
)

// startIngressServer builds a server with the given ingress config (nil for
// none) and returns it with its address.
func startIngressServer(t *testing.T, cfg *IngressConfig, tune func(*Server)) (*Server, string) {
	t.Helper()
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(so)
	srv.Logf = nil
	srv.Ingress = cfg
	if tune != nil {
		tune(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

// TestOverloadAdmitterBasics exercises the admitter state machine directly:
// the uncontended fast path, queue-full shedding, and expiry at admission.
// totals sums the per-tenant verdict counters.
func (a *admitter) totals() (admitted, shed, rateLimited, expired int64) {
	for i := range a.tenants {
		t := &a.tenants[i]
		admitted += t.admitted.Load()
		shed += t.shed.Load()
		rateLimited += t.rateLimited.Load()
		expired += t.expired.Load()
	}
	return
}

func TestOverloadAdmitterBasics(t *testing.T) {
	a := newAdmitter(IngressConfig{Tenants: 1, MaxInflight: 1, QueueCap: 1})
	if v := a.tryAdmit(0, time.Time{}); v != admitOK {
		t.Fatalf("first admit = %d, want admitOK", v)
	}
	// Slot taken: the next arrival must queue, the one after that shed.
	if v := a.tryAdmit(0, time.Time{}); v != admitWait {
		t.Fatalf("second admit = %d, want admitWait", v)
	}
	if v := a.tryAdmit(0, time.Time{}); v != admitShed {
		t.Fatalf("third admit = %d, want admitShed", v)
	}
	// An already-expired request is refused before any queueing.
	if v := a.tryAdmit(0, time.Now().Add(-time.Second)); v != admitExpired {
		t.Fatalf("expired admit = %d, want admitExpired", v)
	}
	// Redeem the reservation: release grants the parked waiter the slot.
	done := make(chan int, 1)
	go func() { done <- a.wait(0, time.Time{}) }()
	waitCond(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.tenants[0].waiting == 1
	})
	a.release()
	if v := <-done; v != admitOK {
		t.Fatalf("wait = %d, want admitOK", v)
	}
	a.release() // the waiter's slot
	a.mu.Lock()
	inflight := a.inflight
	a.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("inflight = %d after all releases, want 0", inflight)
	}
	admitted, shed, _, expired := a.totals()
	if admitted != 2 {
		t.Fatalf("admitted = %d, want 2", admitted)
	}
	if shed != 1 {
		t.Fatalf("shed = %d, want 1", shed)
	}
	if expired != 1 {
		t.Fatalf("expired = %d, want 1", expired)
	}
	// The same counts must surface per tenant (everything above was
	// tenant 0).
	if got := a.tenants[0].admitted.Load(); got != 2 {
		t.Fatalf("tenant 0 admitted = %d, want 2", got)
	}
}

// TestOverloadAdmitterFairness parks waiters of two tenants with weights 3:1
// behind a single execution slot and checks the smooth-WRR drain order gives
// the heavy tenant three grants for every one of the light tenant's.
func TestOverloadAdmitterFairness(t *testing.T) {
	a := newAdmitter(IngressConfig{Tenants: 2, MaxInflight: 1, QueueCap: 100, Weights: []int{3, 1}})
	if v := a.tryAdmit(0, time.Time{}); v != admitOK {
		t.Fatalf("holder admit = %d, want admitOK", v)
	}
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for tenant := 0; tenant < 2; tenant++ {
		for i := 0; i < 4; i++ {
			if v := a.tryAdmit(tenant, time.Time{}); v != admitWait {
				t.Fatalf("tenant %d waiter %d: admit = %d, want admitWait", tenant, i, v)
			}
			wg.Add(1)
			go func(tenant int) {
				defer wg.Done()
				if v := a.wait(tenant, time.Time{}); v != admitOK {
					t.Errorf("tenant %d wait = %d, want admitOK", tenant, v)
					return
				}
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
				a.release()
			}(tenant)
		}
	}
	waitCond(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.tenants[0].waiting+a.tenants[1].waiting == 8
	})
	a.release() // start the grant chain
	wg.Wait()
	if len(order) != 8 {
		t.Fatalf("drained %d grants, want 8", len(order))
	}
	// Everyone drains eventually; the weighting shows in the order. Smooth
	// WRR at 3:1 interleaves 0,0,1,0 per cycle — three heavy grants per
	// light one, without bursts that would starve the light tenant.
	want := []int{0, 0, 1, 0}
	for i, tn := range want {
		if order[i] != tn {
			t.Fatalf("drain order %v does not follow smooth WRR (want prefix %v)", order, want)
		}
	}
}

// waitCond polls cond for up to 5s.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadMuxSessions drives commits and queries from many multiplexed
// sessions over a two-connection pool and checks the server's view: the
// session gauge counts every logical session, and every data-plane request
// passed admission.
func TestOverloadMuxSessions(t *testing.T) {
	_, addr := startIngressServer(t, &IngressConfig{Tenants: 2, MaxInflight: 64, QueueCap: 64}, nil)
	m, err := DialMux(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	const sessions = 8
	var wg sync.WaitGroup
	errCh := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		s := m.Session(byte(i % 2))
		wg.Add(1)
		go func(s *Session, base oracle.RowID) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				ts, err := s.Begin()
				if err != nil {
					errCh <- err
					return
				}
				res, err := s.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{base + oracle.RowID(j)}})
				if err != nil {
					errCh <- err
					return
				}
				if !res.Committed {
					errCh <- errors.New("disjoint-row commit aborted")
					return
				}
				st, err := s.Query(ts)
				if err != nil {
					errCh <- err
					return
				}
				if st.Status != oracle.StatusCommitted || st.CommitTS != res.CommitTS {
					errCh <- errors.New("session query returned wrong status")
					return
				}
			}
			errCh <- nil
		}(s, oracle.RowID(uint64(i)<<32))
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := wireSum(t, c, "netsrv_sessions"); got != sessions {
		t.Fatalf("sessions gauge = %v, want %d", got, sessions)
	}
	if got, want := wireSum(t, c, "netsrv_ingress_admitted_total"), sessions*20*3; got != float64(want) {
		t.Fatalf("admitted = %v, want %d", got, want)
	}
	for _, family := range []string{"netsrv_ingress_shed_total", "netsrv_ingress_rate_limited_total", "netsrv_ingress_expired_total"} {
		if got := wireSum(t, c, family); got != 0 {
			t.Fatalf("%s = %v under no overload", family, got)
		}
	}
}

// TestOverloadSessionCap opens more sessions than the server allows and
// checks the excess is refused with the typed session-limit error (which is
// also an ErrOverload).
func TestOverloadSessionCap(t *testing.T) {
	_, addr := startIngressServer(t, &IngressConfig{MaxSessions: 2}, nil)
	m, err := DialMux(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 2; i++ {
		if _, err := m.Session(0).Begin(); err != nil {
			t.Fatalf("session %d within cap: %v", i, err)
		}
	}
	_, err = m.Session(0).Begin()
	if !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("third session error = %v, want ErrSessionLimit", err)
	}
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("session-limit error does not wrap ErrOverload: %v", err)
	}
}

// TestOverloadRateLimit exhausts a tenant's token bucket and checks the next
// request is refused with the typed rate-limit error.
func TestOverloadRateLimit(t *testing.T) {
	_, addr := startIngressServer(t, &IngressConfig{Rate: 1, Burst: 1}, nil)
	m, err := DialMux(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.Session(0)
	if _, err := s.Begin(); err != nil {
		t.Fatalf("first request within burst: %v", err)
	}
	_, err = s.Begin()
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second request error = %v, want ErrRateLimited", err)
	}
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("rate-limit error does not wrap ErrOverload: %v", err)
	}
}

// TestOverloadDeadlineExpiredAtAdmission sends a request whose deadline
// budget cannot survive the trip to the admission gate.
func TestOverloadDeadlineExpiredAtAdmission(t *testing.T) {
	_, addr := startIngressServer(t, &IngressConfig{}, nil)
	m, err := DialMux(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	s := m.Session(0)
	if err := s.SetDeadline(time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Begin(); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("1µs-budget request error = %v, want ErrDeadlineExceeded", err)
	}
	if err := s.SetDeadline(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Begin(); err != nil {
		t.Fatalf("deadline cleared, request still failing: %v", err)
	}
}

// TestOverloadShedQueueFull saturates a MaxInflight-slot, QueueCap-entry
// admission gate: the first commit holds a slot while its ledger append is
// held, the next MaxInflight-1 hold the other slots parked in the coalescer,
// QueueCap more queue, and every later arrival is shed with ErrOverload. A
// shed request never executes: neither the coalescer nor the oracle ever
// sees more commits than were served.
func TestOverloadShedQueueFull(t *testing.T) {
	for _, tc := range []struct{ inflight, queue int }{{1, 1}, {2, 3}} {
		t.Run(fmt.Sprintf("inflight-%d/queue-%d", tc.inflight, tc.queue), func(t *testing.T) {
			g := startGatedServer(t, &IngressConfig{MaxInflight: tc.inflight, QueueCap: tc.queue}, 64)
			m, err := DialMux(g.addr, 1)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			const n = 10
			wantServed := tc.inflight + tc.queue
			tss := g.begins(t, m.Session(0), n)
			var served, shed, other int
			var mu sync.Mutex
			var wg sync.WaitGroup
			commit := func(i int) {
				defer wg.Done()
				_, err := m.Session(0).Commit(oracle.CommitRequest{StartTS: tss[i], WriteSet: []oracle.RowID{oracle.RowID(i + 1)}})
				mu.Lock()
				defer mu.Unlock()
				switch {
				case err == nil:
					served++
				case errors.Is(err, ErrOverload):
					shed++
				default:
					other++
				}
			}
			wg.Add(1)
			go commit(0)
			<-g.entered
			for i := 1; i < tc.inflight; i++ {
				wg.Add(1)
				go commit(i)
			}
			g.settle(t, func(st gateState) bool { return st.inflight == tc.inflight && st.coalesced == tc.inflight })
			for i := tc.inflight; i < wantServed; i++ {
				wg.Add(1)
				go commit(i)
			}
			g.settle(t, func(st gateState) bool { return st.waiting == tc.queue })
			for i := wantServed; i < n; i++ {
				wg.Add(1)
				go commit(i)
			}
			g.settle(t, func(st gateState) bool { return st.shed == n-wantServed })
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			g.releaseUntil(done, nil)
			if served != wantServed || shed != n-wantServed || other != 0 {
				t.Fatalf("served=%d shed=%d other=%d, want %d, %d, 0", served, shed, other, wantServed, n-wantServed)
			}
			if got := g.srv.coal.Load().b.Accepted(); got != int64(served) {
				t.Fatalf("coalescer accepted %d commits, want the %d served", got, served)
			}
			ost := g.so.Stats()
			if got := ost.Commits + ost.ConflictAborts + ost.TmaxAborts; got != int64(served) {
				t.Fatalf("oracle decided %d commits, want the %d served", got, served)
			}
			c, err := Dial(g.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if got := wireSum(t, c, "netsrv_ingress_shed_total"); got != float64(shed) {
				t.Fatalf("shed = %v, want %d", got, shed)
			}
		})
	}
}

// fakeListener feeds Serve a scripted sequence of Accept errors followed by
// connections delivered over a channel.
type fakeListener struct {
	mu     sync.Mutex
	errs   []error
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newFakeListener(errs ...error) *fakeListener {
	return &fakeListener{errs: errs, conns: make(chan net.Conn), closed: make(chan struct{})}
}

func (l *fakeListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if len(l.errs) > 0 {
		err := l.errs[0]
		l.errs = l.errs[1:]
		l.mu.Unlock()
		return nil, err
	}
	l.mu.Unlock()
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *fakeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *fakeListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4zero} }

// TestOverloadAcceptBackoff scripts transient Accept failures before a real
// connection and checks the accept loop backs off and keeps serving instead
// of dying.
func TestOverloadAcceptBackoff(t *testing.T) {
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(so)
	srv.Logf = nil
	ln := newFakeListener(errors.New("accept: too many open files"), errors.New("accept: connection aborted"))
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cli, srvEnd := net.Pipe()
	defer cli.Close()
	start := time.Now()
	select {
	case ln.conns <- srvEnd:
	case <-time.After(5 * time.Second):
		t.Fatal("accept loop never came back for the connection")
	}
	// Two backoff sleeps (5ms + 10ms) must have elapsed before the real
	// accept.
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("accept took %v", elapsed)
	}
	// The connection accepted after the failures is fully served.
	body := make([]byte, 9)
	copyU64(body, 7)
	body[8] = opHealth
	if _, err := cli.Write(appendFrame(nil, body)); err != nil {
		t.Fatal(err)
	}
	resp, err := readFrameInto(cli, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, code, _, err := splitResponse(resp); err != nil || code != codeOK {
		t.Fatalf("health over recovered accept loop: code=%d err=%v", code, err)
	}
}

func copyU64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// TestOverloadStalledReader connects over an unbuffered pipe, floods
// requests and never reads a byte of response: the bounded pending buffer
// plus the write-stall deadline must disconnect the connection instead of
// growing the buffer without limit.
func TestOverloadStalledReader(t *testing.T) {
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(so)
	srv.Logf = nil
	srv.MaxPendingBytes = 256
	srv.WriteStallTimeout = 50 * time.Millisecond
	ln := newFakeListener()
	srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cli, srvEnd := net.Pipe()
	defer cli.Close()
	ln.conns <- srvEnd
	// Flood Begin requests without ever reading. net.Pipe is unbuffered, so
	// the server's first response Write blocks immediately; once the pending
	// buffer passes 256 bytes the remaining handlers park, and after 50ms
	// the stall deadline kills the connection. Our writes then start
	// failing; stop flooding at that point.
	body := make([]byte, 9)
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; time.Now().Before(deadline); i++ {
		copyU64(body, uint64(i+1))
		body[8] = opBegin
		cli.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
		if _, err := cli.Write(appendFrame(nil, body)); err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				// Server stopped consuming but has not killed the conn
				// yet; keep probing.
				continue
			}
			if errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
				return // server disconnected the stalled reader: pass
			}
			return // any other teardown error also means disconnect
		}
	}
	t.Fatal("server never disconnected the stalled reader")
}

// TestOverloadIdleTimeout checks a silent connection is disconnected after
// the idle deadline, while one that keeps sending stays up.
func TestOverloadIdleTimeout(t *testing.T) {
	_, addr := startIngressServer(t, nil, func(s *Server) {
		s.IdleTimeout = 100 * time.Millisecond
	})
	// Silent connection: disconnected.
	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	idle.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := readFrameInto(idle, nil); err == nil {
		t.Fatal("idle connection was not disconnected")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("idle connection still up after 5s")
	}
	// Active client: survives well past the idle deadline.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 5; i++ {
		if _, err := c.Begin(); err != nil {
			t.Fatalf("active connection died: %v", err)
		}
		time.Sleep(40 * time.Millisecond)
	}
}

// BenchmarkAdmissionDecision measures the per-request cost of the admission
// gate on its two steady-state outcomes: the uncontended admit+release pair
// and the queue-full shed. Both must be allocation-free — the budget in
// scripts/alloc_budget.txt pins them at zero, because an allocating
// admission decision would put the entire overload defense on the GC.
func BenchmarkAdmissionDecision(b *testing.B) {
	deadline := time.Now().Add(time.Hour)
	b.Run("admit", func(b *testing.B) {
		a := newAdmitter(IngressConfig{Tenants: 4, MaxInflight: 1 << 30, QueueCap: 128, Rate: 1e12, Burst: 1 << 30})
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if a.tryAdmit(0, deadline) == admitOK {
					a.release()
				}
			}
		})
	})
	b.Run("shed", func(b *testing.B) {
		a := newAdmitter(IngressConfig{Tenants: 4, MaxInflight: 1, QueueCap: 4})
		if v := a.tryAdmit(0, time.Time{}); v != admitOK {
			b.Fatalf("setup admit = %d", v)
		}
		a.mu.Lock()
		a.tenants[0].waiting = a.queueCap // queue pinned full: every arrival sheds
		a.mu.Unlock()
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if a.tryAdmit(0, deadline) != admitShed {
					b.Fatal("expected shed")
				}
			}
		})
	})
}
