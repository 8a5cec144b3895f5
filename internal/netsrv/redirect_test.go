package netsrv

import (
	"slices"
	"testing"

	"repro/internal/oracle"
	"repro/internal/partition"
)

func mustParse(t *testing.T, spec string, n int) partition.Router {
	t.Helper()
	r, err := partition.ParseRouter(spec, n)
	if err != nil {
		t.Fatalf("ParseRouter(%q): %v", spec, err)
	}
	return r
}

// TestRedirectAdoption is the live-repartition wire path: a client holding a
// stale routing table commits to the old owner, receives the epoch redirect,
// adopts the new table and retries — the commit succeeds without surfacing
// an error, and the client ends on the server's epoch.
func TestRedirectAdoption(t *testing.T) {
	// Epoch 1: rows < 100 on partition 0, the rest on partition 1.
	table1 := partition.RoutingTable{Epoch: 1, Router: mustParse(t, "map:2;0,1;100", 2)}
	addrs, servers, oracles := startElasticServers(t, 2, oracle.WSI, table1)

	pc, err := DialPartitioned(oracle.WSI, table1.Router, addrs...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()
	if e := pc.Routing().Epoch; e != 1 {
		t.Fatalf("client adopted epoch %d at dial, want 1", e)
	}

	ts, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	if res, err := pc.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{150}}); err != nil || !res.Committed {
		t.Fatalf("pre-move commit res=%+v err=%v", res, err)
	}
	if st := oracles[1].Query(ts); st.Status != oracle.StatusCommitted {
		t.Fatalf("pre-move owner status %+v", st)
	}

	// The fleet rebalances: epoch 2 hands [100, ∞) to partition 0. The
	// servers learn immediately; the client is left stale.
	table2 := partition.RoutingTable{Epoch: 2, Router: mustParse(t, "map:2;1,0;100", 2)}
	for i, srv := range servers {
		if !srv.SetRouting(table2) {
			t.Fatalf("server %d rejected newer table", i)
		}
	}

	// Stale commit: the client still routes row 160 to partition 1, which
	// answers codeRedirect; the coordinator adopts and retries internally.
	ts2, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	res, err := pc.Commit(oracle.CommitRequest{StartTS: ts2, WriteSet: []oracle.RowID{160}})
	if err != nil {
		t.Fatalf("stale-epoch commit surfaced: %v", err)
	}
	if !res.Committed {
		t.Fatalf("stale-epoch commit aborted: %+v", res)
	}
	if st := oracles[0].Query(ts2); st.Status != oracle.StatusCommitted {
		t.Fatalf("redirected commit missing on new owner: %+v", st)
	}
	if st := oracles[1].Query(ts2); st.Status == oracle.StatusCommitted {
		t.Fatal("redirected commit landed on the old owner")
	}
	if e := pc.Routing().Epoch; e != 2 {
		t.Fatalf("client epoch %d after redirect, want 2", e)
	}

	// RefreshRouting is idempotent once current.
	if pc.RefreshRouting() {
		t.Fatal("refresh adopted a table the client already holds")
	}
}

// TestRedirectHealsStaleServer covers the other staleness direction: a
// partition that crash-restarted on its static flag table (older epoch)
// redirects with an epoch BELOW the client's. The client cannot adopt that —
// instead it must push its newer table down to the fleet and retry, so the
// recovered server is healed rather than the commit failing forever.
func TestRedirectHealsStaleServer(t *testing.T) {
	table1 := partition.RoutingTable{Epoch: 1, Router: mustParse(t, "map:2;0;", 2)}
	addrs, servers, oracles := startElasticServers(t, 2, oracle.WSI, table1)
	pc, err := DialPartitioned(oracle.WSI, table1.Router, addrs...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()

	// The coordinator learns epoch 2 (rows >= 100 now on partition 1), but
	// the servers never do — the state a crash-restart leaves behind.
	table2 := partition.RoutingTable{Epoch: 2, Router: mustParse(t, "map:2;0,1;100", 2)}
	if !pc.ApplyRouting(table2) {
		t.Fatal("client rejected newer table")
	}

	ts, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	res, err := pc.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{150}})
	if err != nil {
		t.Fatalf("commit against stale fleet surfaced: %v", err)
	}
	if !res.Committed {
		t.Fatalf("commit against stale fleet aborted: %+v", res)
	}
	// The heal pushed epoch 2 to the servers, and the commit landed where
	// the newer table routes it.
	for i, srv := range servers {
		if e := srv.Routing().Epoch; e != 2 {
			t.Fatalf("server %d epoch %d after heal, want 2", i, e)
		}
	}
	if st := oracles[1].Query(ts); st.Status != oracle.StatusCommitted {
		t.Fatalf("healed commit missing on new owner: %+v", st)
	}
}

// TestServerRoutingEpochFence: a server never rolls its routing table back
// to an older or equal epoch, in-process or over the wire.
func TestServerRoutingEpochFence(t *testing.T) {
	table2 := partition.RoutingTable{Epoch: 2, Router: mustParse(t, "map:1;0;", 1)}
	addrs, servers, _ := startElasticServers(t, 1, oracle.WSI, table2)

	stale := partition.RoutingTable{Epoch: 1, Router: mustParse(t, "map:1;0;", 1)}
	if servers[0].SetRouting(stale) {
		t.Fatal("server adopted an older epoch")
	}
	if servers[0].SetRouting(table2) {
		t.Fatal("server adopted an equal epoch")
	}
	if e := servers[0].Routing().Epoch; e != 2 {
		t.Fatalf("server epoch %d after stale pushes, want 2", e)
	}

	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if err := c.SetRouting(stale); err == nil {
		t.Fatal("wire push of an older epoch accepted")
	}
	next := partition.RoutingTable{Epoch: 3, Router: mustParse(t, "map:1;0;", 1)}
	if err := c.SetRouting(next); err != nil {
		t.Fatalf("wire push of a newer epoch rejected: %v", err)
	}
	epoch, spec, err := c.Routing()
	if err != nil || epoch != 3 {
		t.Fatalf("wire routing = %d %q err=%v, want epoch 3", epoch, spec, err)
	}
	if _, err := partition.ParseRouter(spec, 1); err != nil {
		t.Fatalf("wire spec %q does not reparse: %v", spec, err)
	}
}

// TestRemoteRebalancerMovesHotRange runs the elastic rebalancer over a
// wire-fronted fleet: it reads each server's slice loads off the metrics
// plane, moves one of two equally hot buckets off the single owner, and
// pushes the new table to both servers.
func TestRemoteRebalancerMovesHotRange(t *testing.T) {
	table1 := partition.RoutingTable{Epoch: 1, Router: mustParse(t, "map:2;0;", 2)}
	addrs, servers, oracles := startElasticServers(t, 2, oracle.WSI, table1)
	pc, err := DialPartitioned(oracle.WSI, table1.Router, addrs...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()
	rb := partition.NewRebalancer(pc.Coordinator, partition.RebalanceConfig{LoadSpan: testLoadSpan, MinLoad: 10, MinImbalance: 1.5})
	rb.Tick() // first sample establishes the baseline

	// Equal heat in buckets 2 (rows 200..299) and 10 (rows 1000..1099).
	for i := 0; i < 50; i++ {
		for _, row := range []oracle.RowID{250, 1050} {
			ts, err := pc.Begin()
			if err != nil {
				t.Fatal(err)
			}
			if res, err := pc.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{row}}); err != nil || !res.Committed {
				t.Fatalf("commit row %d: res=%+v err=%v", row, res, err)
			}
		}
	}
	rb.Tick()

	if n := rb.Moves(); n != 1 {
		t.Fatalf("rebalancer made %d moves, want exactly one", n)
	}
	for i, srv := range servers {
		if e := srv.Routing().Epoch; e < 2 {
			t.Fatalf("server %d at routing epoch %d after the move, want >= 2", i, e)
		}
	}
	for p, c := range pc.Clients() {
		got, err := c.SliceLoads()
		if err != nil {
			t.Fatalf("partition %d slice loads: %v", p, err)
		}
		if want := oracles[p].Stats().SliceLoads; !slices.Equal(got, want) {
			t.Fatalf("partition %d slice loads over the wire = %v, want %v", p, got, want)
		}
	}
}
