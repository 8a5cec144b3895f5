package netsrv

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/txn"
)

func startServer(t *testing.T, engine oracle.Engine) (*Server, *Client) {
	t.Helper()
	clock := tso.New(0, nil)
	so, err := oracle.New(oracle.Config{Engine: engine, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(so)
	srv.Logf = nil // silence expected connection-teardown noise
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func TestBeginOverNetwork(t *testing.T) {
	_, c := startServer(t, oracle.WSI)
	a, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if b <= a {
		t.Fatalf("timestamps not increasing over network: %d then %d", a, b)
	}
}

func TestCommitAndConflictOverNetwork(t *testing.T) {
	_, c := startServer(t, oracle.WSI)
	t1, _ := c.Begin()
	t2, _ := c.Begin()
	r1, err := c.Commit(oracle.CommitRequest{StartTS: t1, WriteSet: []oracle.RowID{1}})
	if err != nil || !r1.Committed {
		t.Fatalf("commit 1: %+v %v", r1, err)
	}
	// t2 read row 1 which t1 modified concurrently.
	r2, err := c.Commit(oracle.CommitRequest{StartTS: t2, WriteSet: []oracle.RowID{2}, ReadSet: []oracle.RowID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if r2.Committed {
		t.Fatal("conflict not detected over network")
	}
}

func TestQueryAbortForgetOverNetwork(t *testing.T) {
	_, c := startServer(t, oracle.SI)
	ts, _ := c.Begin()
	if st := c.Query(ts); st.Status != oracle.StatusPending {
		t.Fatalf("pending query = %v", st.Status)
	}
	if err := c.Abort(ts); err != nil {
		t.Fatal(err)
	}
	if st := c.Query(ts); st.Status != oracle.StatusAborted {
		t.Fatalf("aborted query = %v", st.Status)
	}
	c.Forget(ts)
	if st := c.Query(ts); st.Status != oracle.StatusPending {
		t.Fatalf("forgotten query = %v", st.Status)
	}
}

func TestStatsOverNetwork(t *testing.T) {
	_, c := startServer(t, oracle.SI)
	ts, _ := c.Begin()
	if _, err := c.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{1}}); err != nil {
		t.Fatal(err)
	}
	if b, n := wireSum(t, c, "oracle_begins_total"), wireSum(t, c, "oracle_commits_total"); b != 1 || n != 1 {
		t.Fatalf("begins = %v commits = %v, want 1 and 1", b, n)
	}
}

func TestPipelinedConcurrentCalls(t *testing.T) {
	_, c := startServer(t, oracle.WSI)
	const callers = 32
	var wg sync.WaitGroup
	tss := make([]uint64, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts, err := c.Begin()
			if err != nil {
				t.Errorf("begin: %v", err)
				return
			}
			tss[i] = ts
			res, err := c.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(i)}})
			if err != nil || !res.Committed {
				t.Errorf("commit %d: %+v %v", i, res, err)
			}
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, ts := range tss {
		if ts == 0 || seen[ts] {
			t.Fatalf("duplicate or zero pipelined timestamp: %d", ts)
		}
		seen[ts] = true
	}
}

func TestServerSurvivesGarbageConnection(t *testing.T) {
	srv, c := startServer(t, oracle.WSI)
	// Throw garbage at the server on a raw connection.
	raw, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	raw.mu.Lock()
	_, _ = raw.conn.Write([]byte{0, 0, 0, 2, 0xde}) // truncated body
	raw.mu.Unlock()
	raw.Close()
	// The healthy client must still work.
	if _, err := c.Begin(); err != nil {
		t.Fatalf("healthy client broken by garbage peer: %v", err)
	}
}

func TestClientFailsPendingOnServerClose(t *testing.T) {
	srv, c := startServer(t, oracle.WSI)
	srv.Close()
	_, err := c.Begin()
	if err == nil {
		t.Fatal("Begin should fail after server close")
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	_, c := startServer(t, oracle.WSI)
	// Hand-craft an unknown op.
	if _, err := c.call(0xEE, nil); err == nil {
		t.Fatal("unknown op must yield an error")
	} else if _, ok := err.(remoteError); !ok {
		t.Fatalf("err = %T %v, want remoteError", err, err)
	}
}

// Retired ops are never reused: ops 2 and 4 were the single commit and the
// single status query (sent here with the payloads they took), op 6 the
// commit-notification stream (a frame asking it for a 1<<40-event buffer
// once made the server allocate for it), op 7 the positional stats, op 11
// the manual standby promote, op 14 the one-shot commit at
// coordinator-supplied timestamps, ops 16-20 the routing table and range
// migrations of live repartitioning (sent with the payloads they took, op
// 19 with the huge buffer). Bare or enveloped, each is an unknown operation
// answered with codeErr, and the same connection goes on serving requests.
func TestRetiredOpSubscribe(t *testing.T) {
	buffer := u64(1 << 40)
	commit := appendCommitReq(nil, oracle.CommitRequest{StartTS: 1, WriteSet: []oracle.RowID{1}})
	keyRange := append(u64(0), u64(100)...) // [lo, hi)
	for _, retired := range []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"commit", 2, commit}, {"query", 4, u64(1)}, {"subscribe", 6, buffer},
		{"stats", 7, buffer}, {"promote", 11, buffer}, {"commit-at", 14, buffer},
		{"routing", 16, nil}, {"set-routing", 17, append(u64(2), "hash"...)},
		{"export-range", 18, keyRange}, {"apply-range", 19, buffer}, {"discard-range", 20, keyRange},
	} {
		t.Run(retired.name, func(t *testing.T) {
			srv, _ := startServer(t, oracle.WSI)
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			exchange := func(reqID uint64, op byte, payload []byte) (byte, []byte) {
				t.Helper()
				body := append(appendU64(nil, reqID), op)
				if _, err := conn.Write(appendFrame(nil, append(body, payload...))); err != nil {
					t.Fatal(err)
				}
				resp, err := readFrameInto(conn, nil)
				if err != nil {
					t.Fatalf("request %d: %v", reqID, err)
				}
				id, code, p, err := splitResponse(resp)
				if err != nil || id != reqID {
					t.Fatalf("request %d: response id %d, err %v", reqID, id, err)
				}
				return code, p
			}
			enveloped := append(appendEnvelope(nil, envelope{session: 1}, retired.op), retired.payload...)
			for i, f := range []struct {
				op      byte
				payload []byte
			}{{retired.op, retired.payload}, {opEnvelope, enveloped}} {
				if code, p := exchange(uint64(i+1), f.op, f.payload); code != codeErr || string(p) != "unknown operation" {
					t.Fatalf("frame %d: code %d %q, want codeErr \"unknown operation\"", i, code, p)
				}
			}
			if code, p := exchange(3, opBegin, nil); code != codeOK || len(p) != 8 {
				t.Fatalf("begin after op %d: code %d, %d-byte payload", retired.op, code, len(p))
			}
		})
	}
}

func TestTxnLayerOverNetwork(t *testing.T) {
	// Full integration: the transaction layer drives the oracle over TCP.
	_, c := startServer(t, oracle.WSI)
	store := kvstore.New(kvstore.Config{})
	tc, err := txn.NewClient(store, c, txn.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	t1, err := tc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Put("k", []byte("net")); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	t2, err := tc.Begin()
	if err != nil {
		t.Fatal(err)
	}
	v, ok, err := t2.Get("k")
	if err != nil || !ok || string(v) != "net" {
		t.Fatalf("networked get = %q,%v,%v", v, ok, err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}

	// Conflict path over the network.
	a, _ := tc.Begin()
	if _, _, err := a.Get("k"); err != nil {
		t.Fatal(err)
	}
	b, _ := tc.Begin()
	if err := b.Put("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := a.Put("other", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); !errors.Is(err, txn.ErrConflict) {
		t.Fatalf("networked conflict = %v, want ErrConflict", err)
	}
}

func TestCommitReqRoundTrip(t *testing.T) {
	prop := func(start uint64, w, r []uint64) bool {
		req := oracle.CommitRequest{StartTS: start}
		for _, v := range w {
			req.WriteSet = append(req.WriteSet, oracle.RowID(v))
		}
		for _, v := range r {
			req.ReadSet = append(req.ReadSet, oracle.RowID(v))
		}
		dec, err := decodeCommitBatchReqInto(nil, appendCommitBatchReq(nil, []oracle.CommitRequest{req}))
		if err != nil || len(dec) != 1 {
			return false
		}
		got := dec[0]
		if got.StartTS != start ||
			len(got.WriteSet) != len(req.WriteSet) || len(got.ReadSet) != len(req.ReadSet) {
			return false
		}
		for i := range req.WriteSet {
			if got.WriteSet[i] != req.WriteSet[i] {
				return false
			}
		}
		for i := range req.ReadSet {
			if got.ReadSet[i] != req.ReadSet[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeCommitReqRejectsTrailing checks a one-request commit batch, the
// frame a single commit travels in.
func TestDecodeCommitReqRejectsTrailing(t *testing.T) {
	enc := appendCommitBatchReq(nil, []oracle.CommitRequest{{StartTS: 1}})
	if _, err := decodeCommitBatchReqInto(nil, append(enc, 0xFF)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}
	if _, err := decodeCommitBatchReqInto(nil, enc[:9]); err == nil {
		t.Fatal("truncated request must be rejected")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{nil, {1}, []byte("hello"), make([]byte, 4096)}
	for _, b := range bodies {
		buf.Reset()
		if _, err := buf.Write(appendFrame(nil, b)); err != nil {
			t.Fatal(err)
		}
		got, err := readFrameInto(&buf, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("frame mismatch: %d vs %d bytes", len(got), len(b))
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrameInto(&buf, nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestManyClientsOneServer(t *testing.T) {
	srv, _ := startServer(t, oracle.WSI)
	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				ts, err := c.Begin()
				if err != nil {
					t.Errorf("begin: %v", err)
					return
				}
				if _, err := c.Commit(oracle.CommitRequest{
					StartTS:  ts,
					WriteSet: []oracle.RowID{oracle.HashRow(fmt.Sprintf("c%d-%d", i, j))},
				}); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestCommitBatchOverNetwork(t *testing.T) {
	_, c := startServer(t, oracle.WSI)
	t1, _ := c.Begin()
	t2, _ := c.Begin()
	t3, _ := c.Begin()
	results, err := c.CommitBatch([]oracle.CommitRequest{
		{StartTS: t1, WriteSet: []oracle.RowID{1}},
		{StartTS: t2, WriteSet: []oracle.RowID{2}, ReadSet: []oracle.RowID{1}}, // intra-batch conflict
		{StartTS: t3}, // read-only
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if !results[0].Committed || results[1].Committed || !results[2].Committed {
		t.Fatalf("decisions = %+v", results)
	}
	if results[2].CommitTS != t3 {
		t.Fatalf("read-only commit ts = %d, want snapshot %d", results[2].CommitTS, t3)
	}
	if empty, err := c.CommitBatch(nil); err != nil || empty != nil {
		t.Fatalf("empty batch: %v, %v", empty, err)
	}
}

func TestCommitBatchReqRoundTrip(t *testing.T) {
	reqs := []oracle.CommitRequest{
		{StartTS: 9, WriteSet: []oracle.RowID{1, 2}, ReadSet: []oracle.RowID{3}},
		{StartTS: 11},
		{StartTS: 13, ReadSet: []oracle.RowID{4, 5, 6}},
	}
	dec, err := decodeCommitBatchReqInto(nil, appendCommitBatchReq(nil, reqs))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(reqs) {
		t.Fatalf("decoded %d requests, want %d", len(dec), len(reqs))
	}
	for i := range reqs {
		if dec[i].StartTS != reqs[i].StartTS ||
			len(dec[i].WriteSet) != len(reqs[i].WriteSet) ||
			len(dec[i].ReadSet) != len(reqs[i].ReadSet) {
			t.Fatalf("request %d: %+v != %+v", i, dec[i], reqs[i])
		}
	}
	if _, err := decodeCommitBatchReqInto(nil, []byte{0, 0}); err == nil {
		t.Fatal("short payload decoded without error")
	}
	// A count far beyond the payload length must be rejected up front.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	if _, err := decodeCommitBatchReqInto(nil, huge); err == nil {
		t.Fatal("absurd count decoded without error")
	}
}

func TestCommitBatchRespRejectsCorruption(t *testing.T) {
	want := oracle.CommitResult{Committed: true, CommitTS: 42}
	resp := appendCommitBatchResp(nil, []oracle.CommitResult{want})
	var out [2]oracle.CommitResult
	if err := decodeCommitBatchRespInto(out[:1], resp); err != nil || out[0] != want {
		t.Fatalf("decoded %+v, %v; want %+v", out[0], err, want)
	}
	out[0] = oracle.CommitResult{}
	if err := decodeCommitBatchRespInto(out[:1], resp[:len(resp)-1]); err == nil {
		t.Fatal("truncated response decoded without error")
	}
	if err := decodeCommitBatchRespInto(out[:1], append(resp, 0)); err == nil {
		t.Fatal("padded response decoded without error")
	}
	if err := decodeCommitBatchRespInto(out[:], resp); err == nil {
		t.Fatal("response for one request decoded as an answer to two")
	}
	if out != [2]oracle.CommitResult{} {
		t.Fatalf("rejected responses wrote %+v", out)
	}
}

// TestCoalescerConflictDecisions checks that conflicting commits coalesced
// into one batch still resolve first-committer-wins.
func TestCoalescerConflictDecisions(t *testing.T) {
	clock := tso.New(0, nil)
	so, err := oracle.New(oracle.Config{Engine: oracle.SI, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(so)
	srv.Logf = nil
	srv.CoalesceMaxBatch = 8
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const contenders = 8
	starts := make([]uint64, contenders)
	for i := range starts {
		if starts[i], err = c.Begin(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	wins := make(chan bool, contenders)
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func(ts uint64) {
			defer wg.Done()
			res, err := c.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{77}})
			if err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			wins <- res.Committed
		}(starts[i])
	}
	wg.Wait()
	close(wins)
	won := 0
	for w := range wins {
		if w {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d contenders on one row committed, want exactly 1", won)
	}
}

func TestQueryBatchOverNetwork(t *testing.T) {
	_, c := startServer(t, oracle.WSI)
	t1, _ := c.Begin()
	t2, _ := c.Begin()
	t3, _ := c.Begin()
	r1, err := c.Commit(oracle.CommitRequest{StartTS: t1, WriteSet: []oracle.RowID{1}})
	if err != nil || !r1.Committed {
		t.Fatalf("commit: %+v %v", r1, err)
	}
	if err := c.Abort(t2); err != nil {
		t.Fatal(err)
	}
	// t3 stays pending; 1<<40 was never seen.
	batch := []uint64{t1, t2, t3, 1 << 40, t1}
	got := c.QueryBatch(batch)
	if len(got) != len(batch) {
		t.Fatalf("got %d statuses, want %d", len(got), len(batch))
	}
	// Every answer must match the per-key query op.
	for i, ts := range batch {
		if want := c.Query(ts); got[i] != want {
			t.Fatalf("lookup %d (ts %d): batch %+v, serial %+v", i, ts, got[i], want)
		}
	}
	if got[0].Status != oracle.StatusCommitted || got[0].CommitTS != r1.CommitTS {
		t.Fatalf("committed lookup = %+v", got[0])
	}
	if got[1].Status != oracle.StatusAborted || got[2].Status != oracle.StatusPending {
		t.Fatalf("abort/pending lookups = %+v %+v", got[1], got[2])
	}
	if out := c.QueryBatch(nil); len(out) != 0 {
		t.Fatalf("empty batch returned %d statuses", len(out))
	}
}

func TestQueryBatchCodecRoundTrip(t *testing.T) {
	startTSs := []uint64{0, 1, 1 << 40, ^uint64(0)}
	dec, err := decodeQueryBatchReqInto(nil, appendQueryBatchReq(nil, startTSs))
	if err != nil {
		t.Fatal(err)
	}
	for i := range startTSs {
		if dec[i] != startTSs[i] {
			t.Fatalf("request ts %d: %d != %d", i, dec[i], startTSs[i])
		}
	}
	statuses := []oracle.TxnStatus{
		{Status: oracle.StatusCommitted, CommitTS: 42},
		{Status: oracle.StatusAborted},
		{Status: oracle.StatusPending},
		{Status: oracle.StatusUnknown},
	}
	got := make([]oracle.TxnStatus, len(statuses))
	if err := decodeQueryBatchRespInto(got, appendQueryBatchResp(nil, statuses)); err != nil {
		t.Fatal(err)
	}
	for i := range statuses {
		if got[i] != statuses[i] {
			t.Fatalf("status %d: %+v != %+v", i, got[i], statuses[i])
		}
	}
	// Corruption is rejected.
	if _, err := decodeQueryBatchReqInto(nil, []byte{0, 0}); err == nil {
		t.Fatal("short query-batch request decoded without error")
	}
	enc := appendQueryBatchReq(nil, startTSs)
	if _, err := decodeQueryBatchReqInto(nil, enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated query-batch request decoded without error")
	}
	resp := appendQueryBatchResp(nil, statuses)
	if err := decodeQueryBatchRespInto(got, append(resp, 0)); err == nil {
		t.Fatal("padded query-batch response decoded without error")
	}
	if err := decodeQueryBatchRespInto(got[:3], resp); err == nil {
		t.Fatal("query-batch response for four lookups decoded as an answer to three")
	}
}

// TestConcurrentQueriesBypassCoalescer drives concurrent per-key query
// frames through a coalescing server and checks every answer is correct and
// every lookup reaches the oracle exactly once, on its own: a lookup is
// decided in memory, so the server answers it inline instead of parking it
// (only commits, which wait on the log, are coalesced).
func TestConcurrentQueriesBypassCoalescer(t *testing.T) {
	clock := tso.New(0, nil)
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: clock})
	if err != nil {
		t.Fatal(err)
	}
	// Seed committed transactions to look up.
	const seeded = 64
	starts := make([]uint64, seeded)
	commits := make([]uint64, seeded)
	for i := range starts {
		ts, _ := so.Begin()
		res, err := so.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(i)}})
		if err != nil || !res.Committed {
			t.Fatalf("seed %d: %+v %v", i, res, err)
		}
		starts[i], commits[i] = ts, res.CommitTS
	}
	srv := NewServer(so)
	srv.Logf = nil
	srv.CoalesceMaxBatch = 16
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	base := so.Stats()
	const goroutines, per = 16, 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := (g*per + i) % seeded
				st := c.Query(starts[k])
				if st.Status != oracle.StatusCommitted || st.CommitTS != commits[k] {
					errs <- fmt.Errorf("lookup %d = %+v, want committed at %d", k, st, commits[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := so.Stats()
	if got := st.Queries - base.Queries; got != goroutines*per {
		t.Fatalf("oracle saw %d lookups, want %d", got, goroutines*per)
	}
	if calls := st.QueryBatches - base.QueryBatches; calls != goroutines*per {
		t.Fatalf("oracle served %d query calls for %d inline lookups", calls, goroutines*per)
	}
}

func TestStatsQueryFieldsOverNetwork(t *testing.T) {
	_, c := startServer(t, oracle.WSI)
	t1, _ := c.Begin()
	if _, err := c.Commit(oracle.CommitRequest{StartTS: t1, WriteSet: []oracle.RowID{1}}); err != nil {
		t.Fatal(err)
	}
	c.QueryBatch([]uint64{t1, t1, t1, t1})
	queries := wireSum(t, c, "oracle_queries_total")
	batches := wireSum(t, c, "oracle_query_batches_total")
	avg := wireSum(t, c, "oracle_query_batch_size_avg")
	if queries != 4 || batches != 1 || avg != 4 {
		t.Fatalf("read stats over wire = Queries:%v QueryBatches:%v Avg:%v, want 4/1/4", queries, batches, avg)
	}
}

func TestStatsBatchFieldsOverNetwork(t *testing.T) {
	_, c := startServer(t, oracle.WSI)
	t1, _ := c.Begin()
	t2, _ := c.Begin()
	if _, err := c.CommitBatch([]oracle.CommitRequest{
		{StartTS: t1, WriteSet: []oracle.RowID{1}},
		{StartTS: t2, WriteSet: []oracle.RowID{2}},
	}); err != nil {
		t.Fatal(err)
	}
	batches, avg := wireSum(t, c, "oracle_commit_batches_total"), wireSum(t, c, "oracle_commit_batch_size_avg")
	if batches != 1 || avg != 2 {
		t.Fatalf("Batches = %v BatchSizeAvg = %v, want 1 and 2", batches, avg)
	}
}

// TestPooledContextHoldsNoConnection: once a connection's requests are
// answered and it has closed, the contexts back in the server's pool keep
// their buffers but no reference to the connection or to a frame.
func TestPooledContextHoldsNoConnection(t *testing.T) {
	srv, c := startServer(t, oracle.WSI)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Begin(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	c.Close()
	srv.Close() // returns once every connection's read loop and handler has
	hits := srv.poolHits.Load()
	for n := 0; ; n++ {
		ctx := srv.getCtx()
		if srv.poolHits.Load() == hits+int64(n) {
			if n == 0 {
				t.Fatal("no context came back to the pool")
			}
			break
		}
		if ctx.cs != nil || ctx.payload != nil {
			t.Fatalf("pooled context %d still holds connection %p, payload %q", n, ctx.cs, ctx.payload)
		}
	}
}
