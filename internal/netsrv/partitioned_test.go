package netsrv

import (
	"testing"

	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/tso"
)

// testLoadSpan sizes the partition oracles' load histogram: 64 buckets of
// 100 rows each.
const testLoadSpan = oracle.LoadBuckets * 100

// startElasticServers boots n partition servers over in-process oracles
// sharing one timestamp stream, each fenced by the given routing table.
// Partition 0 is the deployment's timestamp authority; the others never
// allocate timestamps.
func startElasticServers(t *testing.T, n int, engine oracle.Engine, rt partition.RoutingTable) ([]string, []*Server, []*oracle.StatusOracle) {
	t.Helper()
	clock := tso.New(0, nil)
	addrs := make([]string, n)
	servers := make([]*Server, n)
	oracles := make([]*oracle.StatusOracle, n)
	for i := 0; i < n; i++ {
		so, err := oracle.New(oracle.Config{Engine: engine, TSO: clock, LoadSpan: testLoadSpan})
		if err != nil {
			t.Fatalf("oracle %d: %v", i, err)
		}
		srv := NewServer(so)
		srv.Logf = nil
		srv.PartitionID = i
		srv.Partitions = n
		if !srv.SetRouting(rt) {
			t.Fatalf("server %d rejected initial routing table", i)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr
		servers[i] = srv
		oracles[i] = so
	}
	return addrs, servers, oracles
}

// TestPartitionedClient runs the full wire path: a 3-partition deployment,
// single- and cross-partition commits, merged status queries, and the
// misrouting guard.
func TestPartitionedClient(t *testing.T) {
	router := partition.NewHashRouter(3)
	addrs, _, oracles := startElasticServers(t, 3, oracle.WSI, partition.RoutingTable{Epoch: 1, Router: router})
	pc, err := DialPartitioned(oracle.WSI, router, addrs...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()

	// Single-partition commit: rows 0 and 3 both hash to partition 0.
	t1, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	tOld, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	res, err := pc.Commit(oracle.CommitRequest{StartTS: t1, WriteSet: []oracle.RowID{0, 3}})
	if err != nil {
		t.Fatalf("single commit: %v", err)
	}
	if !res.Committed || res.CommitTS <= t1 {
		t.Fatalf("single commit result %+v", res)
	}
	if st := oracles[0].Query(t1); st.Status != oracle.StatusCommitted {
		t.Fatalf("owner partition status %+v", st)
	}

	// Cross-partition commit: rows 1 and 2 live on partitions 1 and 2.
	t2, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	res2, err := pc.Commit(oracle.CommitRequest{StartTS: t2, WriteSet: []oracle.RowID{1, 2}})
	if err != nil {
		t.Fatalf("cross commit: %v", err)
	}
	if !res2.Committed {
		t.Fatalf("cross commit aborted")
	}
	for _, p := range []int{1, 2} {
		if st := oracles[p].Query(t2); st.Status != oracle.StatusCommitted || st.CommitTS != res2.CommitTS {
			t.Fatalf("partition %d status %+v, want committed at %d", p, st, res2.CommitTS)
		}
	}
	// Merged query through the wire answers for both transactions.
	sts := pc.QueryBatch([]uint64{t1, t2})
	if sts[0].Status != oracle.StatusCommitted || sts[1].Status != oracle.StatusCommitted {
		t.Fatalf("merged statuses %+v", sts)
	}

	// WSI conflict across the wire: tOld read row 1 before t2 wrote it.
	resC, err := pc.Commit(oracle.CommitRequest{StartTS: tOld, WriteSet: []oracle.RowID{5}, ReadSet: []oracle.RowID{1, 2}})
	if err != nil {
		t.Fatalf("conflict commit: %v", err)
	}
	if resC.Committed {
		t.Fatalf("cross-partition read-write conflict missed over the wire")
	}

	// Each partition server's metrics carry its protocol counters.
	c1 := pc.Clients()[1]
	if p, d := wireSum(t, c1, "oracle_prepares_total"), wireSum(t, c1, "oracle_decides_total"); p == 0 || d == 0 {
		t.Fatalf("partition 1 metrics missing prepare/decide counters: prepares %v decides %v", p, d)
	}
	if r := wireSum(t, c1, "oracle_cross_partition_ratio"); r != 1 {
		t.Fatalf("partition 1 cross ratio %v, want 1 (it only saw two-phase traffic)", r)
	}

	// ResolveStatus answers from the coordinator's decision log.
	rs, err := pc.ResolveStatus(t2)
	if err != nil || rs.Status != oracle.StatusCommitted || rs.CommitTS != res2.CommitTS {
		t.Fatalf("resolve status %+v err=%v", rs, err)
	}
}

// TestPartitionedMisroutingGuard: a partition server rejects slices carrying
// rows its routing table assigns elsewhere with a redirect at its epoch.
func TestPartitionedMisroutingGuard(t *testing.T) {
	addrs, _, _ := startElasticServers(t, 2, oracle.WSI, partition.RoutingTable{Epoch: 1, Router: partition.NewHashRouter(2)})
	c, err := Dial(addrs[0])
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	ts, err := c.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	// Row 1 belongs to partition 1; partition 0 must reject it.
	_, err = c.CommitAtBatch([]oracle.PrepareRequest{{StartTS: ts, CommitTS: ts + 1, WriteSet: []oracle.RowID{1}}})
	if mr := partition.AsMisroute(err); mr == nil || mr.Epoch != 1 {
		t.Fatalf("misrouted one-shot: err %v, want a redirect at epoch 1", err)
	}
	_, err = c.PrepareBatch([]oracle.PrepareRequest{{StartTS: ts, CommitTS: ts + 1, WriteSet: []oracle.RowID{1}}})
	if mr := partition.AsMisroute(err); mr == nil || mr.Epoch != 1 {
		t.Fatalf("misrouted prepare: err %v, want a redirect at epoch 1", err)
	}
	// Correctly routed rows pass.
	res, err := c.CommitAtBatch([]oracle.PrepareRequest{{StartTS: ts, CommitTS: ts + 1, WriteSet: []oracle.RowID{2}}})
	if err != nil || !res[0].Committed {
		t.Fatalf("routed one-shot res=%+v err=%v", res, err)
	}
}

// TestPartitionedSIForeignReads: under SI the read set plays no part in
// the conflict check and may span foreign partitions; the coordinator
// must not ship it to the owning partition, whose ownership guard would
// otherwise reject the whole commit (regression).
func TestPartitionedSIForeignReads(t *testing.T) {
	router := partition.NewHashRouter(2)
	addrs, _, _ := startElasticServers(t, 2, oracle.SI, partition.RoutingTable{Epoch: 1, Router: router})
	pc, err := DialPartitioned(oracle.SI, router, addrs...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer pc.Close()
	ts, err := pc.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	// Writes on partition 0 (row 2), reads on partition 1 (row 1).
	res, err := pc.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{2}, ReadSet: []oracle.RowID{1}})
	if err != nil {
		t.Fatalf("SI commit with foreign reads: %v", err)
	}
	if !res.Committed {
		t.Fatalf("SI commit with foreign reads aborted: %+v", res)
	}
}
