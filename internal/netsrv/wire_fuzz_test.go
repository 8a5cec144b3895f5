package netsrv

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/oracle"
)

// wireCodec is the one decoder the server runs for an op's request payload,
// and the encoder that renders the decoded value again.
type wireCodec struct {
	decode func(payload []byte) (any, error)
	encode func(b []byte, v any) []byte
}

// enveloped is a decoded opEnvelope payload.
type enveloped struct {
	env     envelope
	innerOp byte
	inner   []byte
}

var (
	u64Codec = wireCodec{
		decode: func(p []byte) (any, error) { return parseU64(p) },
		encode: func(b []byte, v any) []byte { return appendU64(b, v.(uint64)) },
	}
	prepareBatchCodec = wireCodec{
		decode: func(p []byte) (any, error) { return decodePrepareBatchReq(p) },
		encode: func(b []byte, v any) []byte { return appendPrepareBatchReq(b, v.([]oracle.PrepareRequest)) },
	}
	// queryBatchCodec is a list of start timestamps: a status lookup's,
	// and a publication's.
	queryBatchCodec = wireCodec{
		decode: func(p []byte) (any, error) { return decodeQueryBatchReqInto(nil, p) },
		encode: func(b []byte, v any) []byte { return appendQueryBatchReq(b, v.([]uint64)) },
	}
)

// wireCodecs maps every op whose request carries a payload to its codec.
var wireCodecs = map[byte]wireCodec{
	opAbort:  u64Codec,
	opForget: u64Codec,
	opCommitBatch: {
		decode: func(p []byte) (any, error) { return decodeCommitBatchReqInto(nil, p) },
		encode: func(b []byte, v any) []byte { return appendCommitBatchReq(b, v.([]oracle.CommitRequest)) },
	},
	opQueryBatch:   queryBatchCodec,
	opPrepareBatch: prepareBatchCodec,
	opDecideBatch: {
		decode: func(p []byte) (any, error) { return decodeDecideBatchReq(p) },
		encode: func(b []byte, v any) []byte { return appendDecideBatchReq(b, v.([]oracle.Decision)) },
	},
	opPublishCommits: queryBatchCodec,
	opEnvelope: {
		decode: func(p []byte) (any, error) {
			env, op, inner, err := parseEnvelope(p)
			return enveloped{env, op, inner}, err
		},
		encode: func(b []byte, v any) []byte {
			e := v.(enveloped)
			return append(appendEnvelope(b, e.env, e.innerOp), e.inner...)
		},
	},
}

// checkWireRequest decodes payload as op's request, re-encodes what it
// decoded and decodes that again, expecting the same value; an enveloped
// request's inner payload is checked as its own op's.
func checkWireRequest(t *testing.T, op byte, payload []byte) {
	c, ok := wireCodecs[op]
	if !ok {
		return
	}
	v, err := c.decode(payload)
	if err != nil {
		return
	}
	again, err := c.decode(c.encode(nil, v))
	if err != nil {
		t.Fatalf("op %d: re-encoded payload of %x fails to decode: %v", op, payload, err)
	}
	if !reflect.DeepEqual(again, v) {
		t.Fatalf("op %d: payload %x decodes to %+v, its re-encoding to %+v", op, payload, v, again)
	}
	if e, ok := v.(enveloped); ok && e.innerOp != opEnvelope {
		checkWireRequest(t, e.innerOp, e.inner)
	}
}

// FuzzWireRequest feeds one op byte and a payload to the one decoder the
// server runs for that op. No decoder may panic, none may allocate by a
// count the payload claims rather than by the bytes present, and whatever
// decodes must re-encode to a payload that decodes to the same request.
func FuzzWireRequest(f *testing.F) {
	// testdata/fuzz/FuzzWireRequest holds batch payloads whose counts claim
	// far more requests than the bytes present. Here: one valid payload per
	// op that carries one, and the one-entry batches a single commit and a
	// single lookup travel in.
	req := oracle.CommitRequest{StartTS: 1, WriteSet: []oracle.RowID{1, 2}, ReadSet: []oracle.RowID{3}}
	prep := oracle.PrepareRequest{StartTS: 4, WriteSet: []oracle.RowID{6}}
	for _, s := range []struct {
		op      byte
		payload []byte
	}{
		{opCommitBatch, appendCommitBatchReq(nil, []oracle.CommitRequest{req})},
		{opAbort, u64(1)},
		{opQueryBatch, appendQueryBatchReq(nil, []uint64{1})},
		{opForget, u64(1)},
		{opCommitBatch, appendCommitBatchReq(nil, []oracle.CommitRequest{req, req})},
		{opQueryBatch, appendQueryBatchReq(nil, []uint64{1, 2})},
		{opPrepareBatch, appendPrepareBatchReq(nil, []oracle.PrepareRequest{prep})},
		{opDecideBatch, appendDecideBatchReq(nil, []oracle.Decision{{StartTS: 4, CommitTS: 5, Commit: true}})},
		{opPublishCommits, appendQueryBatchReq(nil, []uint64{4, 7})},
		// Where the retired ops 17-20 stood, so the seed after them keeps its
		// id: multi-request prepare and decide batches, and enveloped lookup
		// and prepare requests.
		{opPrepareBatch, appendPrepareBatchReq(nil, []oracle.PrepareRequest{prep, {StartTS: 7, WriteSet: []oracle.RowID{8}, ReadSet: []oracle.RowID{6}}})},
		{opDecideBatch, appendDecideBatchReq(nil, []oracle.Decision{{StartTS: 4, CommitTS: 5, Commit: true}, {StartTS: 7}})},
		{opEnvelope, appendQueryBatchReq(appendEnvelope(nil, envelope{tenant: 1, session: 2}, opQueryBatch), []uint64{1})},
		{opEnvelope, appendPrepareBatchReq(appendEnvelope(nil, envelope{session: 4, deadline: 5}, opPrepareBatch), []oracle.PrepareRequest{prep})},
		{opEnvelope, appendCommitBatchReq(appendEnvelope(nil, envelope{tenant: 1, session: 2, deadline: 3}, opCommitBatch), []oracle.CommitRequest{req})},
	} {
		f.Add(s.op, s.payload)
	}
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		checkWireRequest(t, op, payload)
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, 1<<20+32*uint64(len(payload)); grew > bound {
			t.Fatalf("op %d: decoding %d bytes allocated %d (bound %d)", op, len(payload), grew, bound)
		}
	})
}
