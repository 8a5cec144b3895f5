package netsrv

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/ha"
	"repro/internal/oracle"
)

// startGroupNode fronts one ha.Member with a Server wired the way
// cmd/oracle-server wires them: OnLead installs the freshly promoted
// oracle, OnFollow deposes the server back to standby role, and the
// leader-hint and standby-read hooks delegate to the member.
func startGroupNode(t *testing.T, id int, store ha.LedgerStore, lease time.Duration, bootstrap bool) (*Server, *ha.Member, string) {
	t.Helper()
	srv := NewStandbyServer()
	srv.Logf = nil
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen node %d: %v", id, err)
	}
	m := ha.NewMember(ha.MemberConfig{
		ID:        id,
		Addr:      addr,
		Store:     store,
		Oracle:    oracle.Config{Engine: oracle.SI},
		Lease:     lease,
		Bootstrap: bootstrap,
		OnLead:    func(so *oracle.StatusOracle, epoch uint64) { srv.Install(so) },
		OnFollow:  func(epoch uint64) { srv.Depose() },
		Logf:      func(string, ...any) {},
	})
	srv.LeaderHint = m.LeaderHint
	srv.StandbyReads = m.QueryBatchInto
	if err := m.Start(); err != nil {
		t.Fatalf("start node %d: %v", id, err)
	}
	return srv, m, addr
}

// waitWireLeader waits until some member (other than exclude) leads and its
// server serves the oracle.
func waitWireLeader(t *testing.T, srvs []*Server, members []*ha.Member, exclude int, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, m := range members {
			if i != exclude && m.Role() == ha.RoleLeader && srvs[i].Promoted() {
				return i
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no serving leader within %v", timeout)
	return -1
}

// TestLeaseWireRedirectAndStandbyReads: a data op sent to a follower
// answers codeNotLeader carrying the leaseholder's address, while status
// queries are served from the follower's standby shadow.
func TestLeaseWireRedirectAndStandbyReads(t *testing.T) {
	store := ha.NewMemStore(3)
	lease := 100 * time.Millisecond
	var srvs []*Server
	var members []*ha.Member
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, m, addr := startGroupNode(t, i, store, lease, i == 0)
		defer srv.Close()
		defer m.Stop()
		srvs = append(srvs, srv)
		members = append(members, m)
		addrs = append(addrs, addr)
	}
	lead := waitWireLeader(t, srvs, members, -1, 2*time.Second)

	lc, err := Dial(addrs[lead])
	if err != nil {
		t.Fatalf("dial leader: %v", err)
	}
	defer lc.Close()
	ts, err := lc.Begin()
	if err != nil {
		t.Fatalf("begin on leader: %v", err)
	}
	res, err := lc.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{42}})
	if err != nil || !res.Committed {
		t.Fatalf("commit on leader: %v %+v", err, res)
	}

	follower := (lead + 1) % 3
	// The redirect hint comes from replayed lease records; wait for the
	// follower's shadow to observe the leader's first renewal.
	hintDeadline := time.Now().Add(2 * time.Second)
	for {
		if _, addr := members[follower].LeaderHint(); addr != "" {
			break
		}
		if time.Now().After(hintDeadline) {
			t.Fatalf("follower never learned the leader's address")
		}
		time.Sleep(time.Millisecond)
	}
	fc, err := Dial(addrs[follower]) // plain Dial: redirects surface, not followed
	if err != nil {
		t.Fatalf("dial follower: %v", err)
	}
	defer fc.Close()
	if role, _ := fc.Health(); role != "standby" {
		t.Fatalf("follower health = %q, want standby", role)
	}
	_, err = fc.Begin()
	var nl *NotLeaderError
	if !errors.As(err, &nl) {
		t.Fatalf("follower Begin err = %v, want NotLeaderError", err)
	}
	if nl.Addr != addrs[lead] || nl.Epoch == 0 {
		t.Fatalf("redirect hint = (%d, %q), want leader %q", nl.Epoch, nl.Addr, addrs[lead])
	}

	// The standby shadow answers the committed status once it catches up.
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, err := fc.ResolveStatus(ts)
		if err == nil && st.Status == oracle.StatusCommitted && st.CommitTS == res.CommitTS {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("standby read did not converge: %+v, %v", st, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestElectionWireFailover: a DialFailover client rides a leader crash —
// the group elects, the client chases codeNotLeader hints and reconnect
// backoff to the new leader, every previously acked commit stays resolvable
// with its original timestamp, and in-doubt settlement respects contexts.
func TestElectionWireFailover(t *testing.T) {
	store := ha.NewMemStore(3)
	lease := 80 * time.Millisecond
	var srvs []*Server
	var members []*ha.Member
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, m, addr := startGroupNode(t, i, store, lease, i == 0)
		defer srv.Close()
		defer m.Stop()
		srvs = append(srvs, srv)
		members = append(members, m)
		addrs = append(addrs, addr)
	}
	lead := waitWireLeader(t, srvs, members, -1, 2*time.Second)

	c, err := DialFailover(addrs...)
	if err != nil {
		t.Fatalf("dial failover: %v", err)
	}
	defer c.Close()

	type ack struct{ start, commit uint64 }
	var acks []ack
	commitOne := func(row oracle.RowID) bool {
		ts, err := c.Begin()
		if err != nil {
			return false
		}
		res, err := c.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{row}})
		if err != nil || !res.Committed {
			return false
		}
		acks = append(acks, ack{ts, res.CommitTS})
		return true
	}
	for i := 0; i < 50; i++ {
		if !commitOne(oracle.RowID(i)) {
			t.Fatalf("commit %d against healthy leader failed", i)
		}
	}

	// Crash the leader: member and server die together, no handover.
	members[lead].Stop()
	srvs[lead].Close()

	// The client works through connection loss, stale redirect hints and
	// the election window; commits must succeed again within a few leases.
	deadline := time.Now().Add(10 * time.Second)
	recovered := 0
	for recovered < 20 {
		if commitOne(oracle.RowID(1000 + recovered)) {
			recovered++
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("client recovered only %d/20 commits after failover", recovered)
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitWireLeader(t, srvs, members, lead, 2*time.Second)

	// Every acked commit — from both sides of the crash — is resolvable
	// with its original commit timestamp through the same client.
	for _, a := range acks {
		st, err := c.ResolveStatus(a.start)
		if err != nil || st.Status != oracle.StatusCommitted || st.CommitTS != a.commit {
			t.Fatalf("acked commit %d lost after failover: %+v, %v", a.start, st, err)
		}
	}

	// Context-aware settlement: an already-expired context fails fast
	// without touching the wire; a live one answers.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := c.ResolveStatusCtx(expired, acks[0].start); err == nil {
		t.Fatalf("expired-context settlement did not fail")
	}
	ctx, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	st, err := c.ResolveStatusCtx(ctx, acks[0].start)
	if err != nil || st.Status != oracle.StatusCommitted {
		t.Fatalf("settlement under live context: %+v, %v", st, err)
	}
}
