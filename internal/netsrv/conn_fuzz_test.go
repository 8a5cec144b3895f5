package netsrv

import (
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/oracle"
	"repro/internal/tso"
)

// fuzzRecord renders one request as FuzzServerConn reads it from its input:
// mode(u8) op(u8) len(u16) payload. Mode bit 0 wraps the request in an
// envelope whose session id is mode>>1.
func fuzzRecord(b []byte, mode, op byte, payload []byte) []byte {
	b = append(b, mode, op, 0, 0)
	binary.BigEndian.PutUint16(b[len(b)-2:], uint16(len(payload)))
	return append(b, payload...)
}

// fuzzFrames splits a fuzz input into request bodies, numbering them from 1.
// A record whose length runs past the input takes what is left.
func fuzzFrames(in []byte) [][]byte {
	var bodies [][]byte
	for id := uint64(1); len(in) >= 4; id++ {
		mode, op := in[0], in[1]
		n := min(int(binary.BigEndian.Uint16(in[2:4])), len(in)-4)
		payload := in[4 : 4+n]
		in = in[4+n:]
		body := appendU64(nil, id)
		if mode&1 != 0 {
			body = append(body, opEnvelope)
			body = appendEnvelope(body, envelope{session: uint32(mode >> 1)}, op)
		} else {
			body = append(body, op)
		}
		bodies = append(bodies, append(body, payload...))
	}
	return bodies
}

// serveFuzzBytes writes the bodies as frames over a fresh connection, then a
// health probe, and reads responses until the probe's answer arrives or the
// server drops the connection.
func serveFuzzBytes(ln *fakeListener, bodies [][]byte) {
	client, server := net.Pipe()
	ln.conns <- server
	client.SetDeadline(time.Now().Add(10 * time.Second))
	const probeID = ^uint64(0)
	wrote := make(chan struct{})
	defer func() { client.Close(); <-wrote }() // closing fails a blocked write
	go func() {
		defer close(wrote)
		for _, body := range bodies {
			if _, err := client.Write(appendFrame(nil, body)); err != nil {
				return
			}
		}
		client.Write(appendFrame(nil, append(appendU64(nil, probeID), opHealth)))
	}()
	for {
		resp, err := readFrameInto(client, nil)
		if err != nil {
			return
		}
		if id, _, _, err := splitResponse(resp); err == nil && id == probeID {
			return
		}
	}
}

// beginOnFreshConn reports whether a new connection still gets a start
// timestamp.
func beginOnFreshConn(ln *fakeListener) bool {
	client, server := net.Pipe()
	ln.conns <- server
	defer client.Close()
	client.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := client.Write(appendFrame(nil, append(appendU64(nil, 1), opBegin))); err != nil {
		return false
	}
	resp, err := readFrameInto(client, nil)
	if err != nil {
		return false
	}
	id, code, payload, err := splitResponse(resp)
	return err == nil && id == 1 && code == codeOK && len(payload) == 8
}

// FuzzServerConn serves a real server (in-memory oracle, admission on) over
// in-memory pipes and feeds it arbitrary requests, bare and enveloped. After
// each input nothing has panicked, the server allocated no more than a
// constant plus a small multiple of the bytes it was sent, and a fresh
// connection still begins a transaction.
func FuzzServerConn(f *testing.F) {
	// testdata/fuzz/FuzzServerConn holds the retired ops 2, 4, 6, 7, 11, 14
	// and 16-20, bare and enveloped, and op 6 carrying a 2^40-entry buffer
	// request.
	// Here: one valid request per live op, and the one-entry batches a single
	// commit and a single lookup travel in.
	req := oracle.CommitRequest{StartTS: 1, WriteSet: []oracle.RowID{1, 2}, ReadSet: []oracle.RowID{3}}
	prep := oracle.PrepareRequest{StartTS: 4, CommitTS: 5, WriteSet: []oracle.RowID{6}}
	for _, s := range []struct {
		op      byte
		payload []byte
	}{
		{opBegin, nil},
		{opCommitBatch, appendCommitBatchReq(nil, []oracle.CommitRequest{req})},
		{opAbort, u64(1)},
		{opQueryBatch, appendQueryBatchReq(nil, []uint64{1})},
		{opForget, u64(1)},
		{opCommitBatch, appendCommitBatchReq(nil, []oracle.CommitRequest{req, req})},
		{opQueryBatch, appendQueryBatchReq(nil, []uint64{1, 2})},
		{opHealth, nil},
		{opPrepareBatch, appendPrepareBatchReq(nil, []oracle.PrepareRequest{prep})},
		{opDecideBatch, appendDecideBatchReq(nil, []oracle.Decision{{StartTS: 4, CommitTS: 5, Commit: true}})},
		{opBeginBlock, u64(16)},
		// Where the retired ops 16-20 stood, so the seeds after them keep
		// their ids: a prepare batch whose second request reads the first's
		// row, an abort decide for a transaction never prepared, a read-only
		// commit, an empty lookup batch and the largest timestamp block.
		{opPrepareBatch, appendPrepareBatchReq(nil, []oracle.PrepareRequest{prep, {StartTS: 7, WriteSet: []oracle.RowID{8}, ReadSet: []oracle.RowID{6}}})},
		{opDecideBatch, appendDecideBatchReq(nil, []oracle.Decision{{StartTS: 7}})},
		{opCommitBatch, appendCommitBatchReq(nil, []oracle.CommitRequest{{StartTS: 1}})},
		{opQueryBatch, appendQueryBatchReq(nil, nil)},
		{opBeginBlock, u64(1 << 20)},
		{opMetrics, nil},
	} {
		f.Add(fuzzRecord(nil, 0, s.op, s.payload))
		f.Add(fuzzRecord(nil, 3, s.op, s.payload))
	}

	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(so)
	srv.Logf = nil
	srv.Ingress = &IngressConfig{Tenants: 2}
	ln := newFakeListener()
	srv.Serve(ln)
	f.Cleanup(func() { srv.Close() })

	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		serveFuzzBytes(ln, fuzzFrames(in))
		if !beginOnFreshConn(ln) {
			t.Fatal("begin on a fresh connection failed after the input")
		}
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, 4<<20+64*uint64(len(in)); grew > bound {
			t.Fatalf("serving %d bytes allocated %d (bound %d)", len(in), grew, bound)
		}
	})
}
