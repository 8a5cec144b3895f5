// Package netsrv exposes the status oracle over TCP with a compact framed
// binary protocol. The protocol is fully pipelined: a client may keep many
// requests outstanding on one connection (the paper's Figure 5 load
// generator keeps 100 outstanding transactions per client), and responses
// are matched to requests by id, not by order.
//
// Wire format (all integers big-endian):
//
//	frame  := len(u32) body
//	request body  := reqID(u64) op(u8) payload
//	response body := reqID(u64) code(u8) payload
package netsrv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/oracle"
)

// Operation codes. 6 (a retired commit-notification stream), 7 (a retired
// positional stats payload) and 11 (a retired manual promote) are never
// reused: a server answers them, like any unknown op, with codeErr.
const (
	opBegin       = 1
	opCommit      = 2
	opAbort       = 3
	opQuery       = 4
	opForget      = 5
	opCommitBatch = 8
	opQueryBatch  = 9
	// opHealth reports whether the server is serving an oracle (a leader
	// or single primary) or not (a group follower), without touching the
	// oracle.
	opHealth = 10
	// The partitioned-oracle ops (internal/partition): phase one and two
	// of the cross-partition commit protocol, the one-shot fast path at
	// coordinator-supplied timestamps, and block allocation of timestamps
	// from the shared clock.
	opPrepareBatch  = 12
	opDecideBatch   = 13
	opCommitAtBatch = 14
	opBeginBlock    = 15
	// The elastic-repartitioning ops: fetch/install the epoch-fenced
	// routing table, and the three range-migration primitives the
	// coordinator drives during a live move.
	opRouting      = 16
	opSetRouting   = 17
	opExportRange  = 18
	opApplyRange   = 19
	opDiscardRange = 20
	// opEnvelope wraps any data-plane op with the ingress header — tenant,
	// logical session id and a relative deadline — so one transport carries
	// many multiplexed client sessions and the server can make admission
	// decisions at the frame boundary. Payload:
	// tenant(u8) session(u32) deadlineMicros(u32, 0 = none) innerOp(u8)
	// innerPayload. Bare (non-enveloped) frames remain valid and are
	// admitted as tenant 0, session 0, no deadline.
	opEnvelope = 21
	// opMetrics gathers the server's self-describing metrics registry: the
	// response payload is metrics.AppendSamples' length-prefixed
	// name/kind/value encoding, so new metrics appear without any wire
	// change. It is the only way a server's counters leave it.
	opMetrics = 22
)

// Role bytes carried by opHealth responses: rolePrimary while the server
// has an oracle installed, roleStandby while it has none.
const (
	roleStandby byte = 0
	rolePrimary byte = 1
)

// Response codes. 2 (the retired stream's event frame) is never reused.
const (
	codeOK  = 0
	codeErr = 1
	// codeRedirect answers a misrouted request (rows the server does not
	// own under its routing table) with the server's routing epoch and
	// router spec, so the client refreshes its table and retries instead
	// of failing. Payload: epoch(u64) spec(string).
	codeRedirect = 3
	// codeOverload answers a request shed by the admission layer before it
	// touched the oracle: the tenant's bounded queue was full, its token
	// bucket was empty, or the session cap was hit. The payload is a single
	// shed-reason byte; the reply is deliberately tiny (10 bytes) so
	// rejecting at 2x offered load stays cheaper than serving.
	codeOverload = 4
	// codeExpired answers a request whose deadline passed before a decision
	// — at admission, while parked in an admission queue, or at batch-cut
	// time inside a coalescer. No payload.
	codeExpired = 5
	// codeNotLeader answers a data operation sent to a replicated-group
	// member that is not (or no longer) the leader — either a standby, or a
	// leader that lost its lease mid-request (its append failed the epoch
	// fence). The payload carries the member's current belief of where the
	// leader is: epoch(u64) addr(string), same shape as codeRedirect's
	// routing payload. The request was rejected before execution, so the
	// client may transparently re-dial the hinted address and retry without
	// ever double-submitting.
	codeNotLeader = 6
)

// Shed-reason bytes carried by codeOverload replies.
const (
	shedQueueFull   byte = 1
	shedRateLimited byte = 2
	shedSessions    byte = 3
)

// Typed ingress errors surfaced by the client for shed and expired replies.
// ErrRateLimited wraps ErrOverload so callers can treat every shed uniformly
// with errors.Is(err, ErrOverload) while still telling the reasons apart.
var (
	ErrOverload         = errors.New("netsrv: overloaded: request shed at admission")
	ErrRateLimited      = fmt.Errorf("%w (tenant rate limit)", ErrOverload)
	ErrSessionLimit     = fmt.Errorf("%w (session cap reached)", ErrOverload)
	ErrDeadlineExceeded = errors.New("netsrv: request deadline exceeded before decision")
)

// shedError maps a codeOverload reason byte to its typed error.
func shedError(payload []byte) error {
	if len(payload) == 1 {
		switch payload[0] {
		case shedRateLimited:
			return ErrRateLimited
		case shedSessions:
			return ErrSessionLimit
		}
	}
	return ErrOverload
}

// maxFrame bounds a frame body; a commit request with the §6.1 maximum of
// 20 rows read + 20 written is ~350 bytes, so this is generous while still
// rejecting garbage.
const maxFrame = 16 << 20

// Errors returned by the protocol layer.
var (
	ErrFrameTooLarge = errors.New("netsrv: frame exceeds limit")
	ErrBadFrame      = errors.New("netsrv: malformed frame")
)

// appendFrame appends one length-prefixed frame to dst. A frame is written
// with one Write of the framed buffer, so header and body never cost two
// syscalls (nor let the kernel emit a 4-byte TCP segment between them).
func appendFrame(dst, body []byte) []byte {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// readFrameInto reads one length-prefixed frame, reusing buf when its
// capacity suffices. The returned slice aliases buf (or its replacement);
// ownership stays with the caller. It is the one frame decode entry of both
// ends, over a buffered reader or a bare connection alike.
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	// The header is read into the buffer the body then overwrites: a local
	// array would escape through the io.Reader and cost an allocation a frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrame {
		return nil, ErrFrameTooLarge
	}
	body, err := readBody(r, buf[:0], int(n))
	if err != nil {
		return nil, err
	}
	return body, nil
}

// frameGrowChunk is the least a frame buffer grows by.
const frameGrowChunk = 64 << 10

// readBody reads an n-byte frame body into buf (length 0). A body beyond
// buf's capacity is believed only as far as it has arrived: the buffer grows
// by the bytes already read (at least one chunk), so a peer that claims
// maxFrame in a 4-byte header and sends nothing more costs one chunk, and
// the buffer never holds more than twice the bytes present plus a chunk. On
// error the partly filled buffer is returned alongside it.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	for len(buf) < n {
		if len(buf) == cap(buf) {
			size := min(n, len(buf)+max(len(buf), frameGrowChunk))
			buf = append(make([]byte, 0, size), buf...)
		}
		m, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF // the stream ended inside the body, on a chunk boundary
		}
		buf = buf[:len(buf)+m]
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// appendRows appends a row-id set as count + fixed 8-byte ids.
func appendRows(b []byte, rows []oracle.RowID) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(rows)))
	b = append(b, n[:]...)
	for _, r := range rows {
		var v [8]byte
		binary.BigEndian.PutUint64(v[:], uint64(r))
		b = append(b, v[:]...)
	}
	return b
}

// parseRowsInto decodes a row set into dst's backing array (grown only when
// capacity is insufficient, so steady-state decoding never allocates).
func parseRowsInto(b []byte, dst []oracle.RowID) (rows []oracle.RowID, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, ErrBadFrame
	}
	n := binary.BigEndian.Uint32(b[:4])
	b = b[4:]
	if uint64(len(b)) < uint64(n)*8 {
		return nil, nil, ErrBadFrame
	}
	if uint64(cap(dst)) < uint64(n) {
		dst = make([]oracle.RowID, n)
	}
	rows = dst[:n:cap(dst)]
	for i := range rows {
		rows[i] = oracle.RowID(binary.BigEndian.Uint64(b[i*8 : i*8+8]))
	}
	return rows, b[n*8:], nil
}

// appendCommitReq renders a commit request payload.
func appendCommitReq(b []byte, req oracle.CommitRequest) []byte {
	b = appendU64(b, req.StartTS)
	b = appendRows(b, req.WriteSet)
	b = appendRows(b, req.ReadSet)
	return b
}

// decodeCommitReqInto decodes a single-commit payload reusing req's row-set
// arrays.
func decodeCommitReqInto(req *oracle.CommitRequest, b []byte) error {
	rest, err := parseCommitReqInto(req, b)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return ErrBadFrame
	}
	return nil
}

// parseCommitReqInto decodes one commit request from the front of b in
// place, reusing req's row-set backing arrays, and returns the remainder;
// commit-batch payloads are a plain concatenation of these.
func parseCommitReqInto(req *oracle.CommitRequest, b []byte) ([]byte, error) {
	if len(b) < 8 {
		return nil, ErrBadFrame
	}
	req.StartTS = binary.BigEndian.Uint64(b[:8])
	var err error
	rest := b[8:]
	req.WriteSet, rest, err = parseRowsInto(rest, req.WriteSet)
	if err != nil {
		return nil, err
	}
	req.ReadSet, rest, err = parseRowsInto(rest, req.ReadSet)
	if err != nil {
		return nil, err
	}
	return rest, nil
}

// appendCommitBatchReq renders a batched commit payload: count(u32)
// followed by the concatenated single-commit encodings.
func appendCommitBatchReq(b []byte, reqs []oracle.CommitRequest) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(reqs)))
	b = append(b, n[:]...)
	for i := range reqs {
		b = appendCommitReq(b, reqs[i])
	}
	return b
}

// decodeCommitBatchReqInto decodes a commit batch reusing the scratch
// request slice and each request's row-set arrays; at steady state a
// handler decodes batches with zero allocation.
func decodeCommitBatchReqInto(scratch []oracle.CommitRequest, b []byte) ([]oracle.CommitRequest, error) {
	if len(b) < 4 {
		return nil, ErrBadFrame
	}
	count := binary.BigEndian.Uint32(b[:4])
	rest := b[4:]
	// Each request is at least 16 bytes (startTS + two empty row sets);
	// bounding by the payload length rejects absurd counts before
	// allocating.
	if uint64(count)*16 > uint64(len(rest)) {
		return nil, ErrBadFrame
	}
	reqs := scratch
	if uint64(cap(reqs)) < uint64(count) {
		reqs = make([]oracle.CommitRequest, count)
		// Salvage the old entries' row-set capacity.
		copy(reqs, scratch[:cap(scratch)])
	}
	reqs = reqs[:count:cap(reqs)]
	var err error
	for i := range reqs {
		rest, err = parseCommitReqInto(&reqs[i], rest)
		if err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, ErrBadFrame
	}
	return reqs, nil
}

// encodeCommitResult renders one commit decision: committed(u8) commitTS(u64).
func encodeCommitResult(b []byte, res oracle.CommitResult) []byte {
	var out [9]byte
	if res.Committed {
		out[0] = 1
	}
	binary.BigEndian.PutUint64(out[1:], res.CommitTS)
	return append(b, out[:]...)
}

func parseCommitResult(b []byte) (oracle.CommitResult, error) {
	if len(b) != 9 {
		return oracle.CommitResult{}, ErrBadFrame
	}
	return oracle.CommitResult{
		Committed: b[0] == 1,
		CommitTS:  binary.BigEndian.Uint64(b[1:]),
	}, nil
}

// appendCommitBatchResp renders the decisions of a commit batch:
// count(u32) then 9 bytes per result.
func appendCommitBatchResp(b []byte, results []oracle.CommitResult) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(results)))
	b = append(b, n[:]...)
	for i := range results {
		b = encodeCommitResult(b, results[i])
	}
	return b
}

func decodeCommitBatchResp(b []byte) ([]oracle.CommitResult, error) {
	if len(b) < 4 {
		return nil, ErrBadFrame
	}
	count := binary.BigEndian.Uint32(b[:4])
	rest := b[4:]
	if uint64(len(rest)) != uint64(count)*9 {
		return nil, ErrBadFrame
	}
	results := make([]oracle.CommitResult, count)
	for i := range results {
		var err error
		results[i], err = parseCommitResult(rest[:9])
		if err != nil {
			return nil, err
		}
		rest = rest[9:]
	}
	return results, nil
}

// u64 renders one big-endian uint64 payload.
func u64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// appendU64 appends one big-endian uint64.
func appendU64(b []byte, v uint64) []byte {
	var e [8]byte
	binary.BigEndian.PutUint64(e[:], v)
	return append(b, e[:]...)
}

func parseU64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, ErrBadFrame
	}
	return binary.BigEndian.Uint64(b), nil
}

// appendTxnStatus renders a TxnStatus payload: status(u8) commitTS(u64).
func appendTxnStatus(b []byte, st oracle.TxnStatus) []byte {
	b = append(b, byte(st.Status))
	return appendU64(b, st.CommitTS)
}

func parseTxnStatus(b []byte) (oracle.TxnStatus, error) {
	if len(b) != 9 {
		return oracle.TxnStatus{}, ErrBadFrame
	}
	return oracle.TxnStatus{
		Status:   oracle.Status(b[0]),
		CommitTS: binary.BigEndian.Uint64(b[1:]),
	}, nil
}

// appendQueryBatchReq renders a batched status-query payload: count(u32)
// followed by the start timestamps.
func appendQueryBatchReq(b []byte, startTSs []uint64) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(startTSs)))
	b = append(b, n[:]...)
	for _, ts := range startTSs {
		b = appendU64(b, ts)
	}
	return b
}

// decodeQueryBatchReqInto decodes a query batch into the scratch slice.
func decodeQueryBatchReqInto(scratch []uint64, b []byte) ([]uint64, error) {
	if len(b) < 4 {
		return nil, ErrBadFrame
	}
	count := binary.BigEndian.Uint32(b[:4])
	rest := b[4:]
	if uint64(len(rest)) != uint64(count)*8 {
		return nil, ErrBadFrame
	}
	startTSs := scratch
	if uint64(cap(startTSs)) < uint64(count) {
		startTSs = make([]uint64, count)
	}
	startTSs = startTSs[:count:cap(startTSs)]
	for i := range startTSs {
		startTSs[i] = binary.BigEndian.Uint64(rest[i*8 : i*8+8])
	}
	return startTSs, nil
}

// appendQueryBatchResp renders the statuses of a query batch: count(u32)
// then 9 bytes per TxnStatus.
func appendQueryBatchResp(b []byte, statuses []oracle.TxnStatus) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(statuses)))
	b = append(b, n[:]...)
	for i := range statuses {
		b = appendTxnStatus(b, statuses[i])
	}
	return b
}

func decodeQueryBatchResp(b []byte) ([]oracle.TxnStatus, error) {
	if len(b) < 4 {
		return nil, ErrBadFrame
	}
	count := binary.BigEndian.Uint32(b[:4])
	rest := b[4:]
	if uint64(len(rest)) != uint64(count)*9 {
		return nil, ErrBadFrame
	}
	statuses := make([]oracle.TxnStatus, count)
	for i := range statuses {
		statuses[i] = oracle.TxnStatus{
			Status:   oracle.Status(rest[0]),
			CommitTS: binary.BigEndian.Uint64(rest[1:9]),
		}
		rest = rest[9:]
	}
	return statuses, nil
}

// envelope is the ingress header of a multiplexed request: the tenant the
// admission layer accounts it to, the logical session it belongs to, and the
// remaining deadline budget in microseconds at send time (0 = none). The
// budget is relative, not an absolute wall-clock instant, so client and
// server clocks need not agree; the server anchors it to its own clock at
// frame receipt. A u32 of microseconds caps a deadline at ~71 minutes.
type envelope struct {
	tenant   byte
	session  uint32
	deadline uint32 // remaining budget in microseconds; 0 = none
}

// envelopeLen is the fixed size of the envelope header before the inner op.
const envelopeLen = 1 + 4 + 4

// appendEnvelope renders the envelope header followed by the inner op byte;
// the inner payload is appended after it by the caller.
func appendEnvelope(b []byte, env envelope, innerOp byte) []byte {
	var hdr [envelopeLen + 1]byte
	hdr[0] = env.tenant
	binary.BigEndian.PutUint32(hdr[1:5], env.session)
	binary.BigEndian.PutUint32(hdr[5:9], env.deadline)
	hdr[9] = innerOp
	return append(b, hdr[:]...)
}

// parseEnvelope splits an opEnvelope payload into its header, inner op and
// inner payload. Pure slicing — the ingress fast path must not allocate.
func parseEnvelope(b []byte) (env envelope, innerOp byte, innerPayload []byte, err error) {
	if len(b) < envelopeLen+1 {
		return envelope{}, 0, nil, ErrBadFrame
	}
	env.tenant = b[0]
	env.session = binary.BigEndian.Uint32(b[1:5])
	env.deadline = binary.BigEndian.Uint32(b[5:9])
	return env, b[9], b[10:], nil
}

// encodePrepareReq renders one prepare slice: startTS, commitTS, write
// rows, read rows. Prepare-batch and commit-at-batch payloads are a
// count-prefixed concatenation of these.
func encodePrepareReq(b []byte, req oracle.PrepareRequest) []byte {
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[:8], req.StartTS)
	binary.BigEndian.PutUint64(hdr[8:], req.CommitTS)
	b = append(b, hdr[:]...)
	b = appendRows(b, req.WriteSet)
	b = appendRows(b, req.ReadSet)
	return b
}

// parsePrepareReqInto decodes one prepare slice in place, reusing req's
// row-set backing arrays.
func parsePrepareReqInto(req *oracle.PrepareRequest, b []byte) ([]byte, error) {
	if len(b) < 16 {
		return nil, ErrBadFrame
	}
	req.StartTS = binary.BigEndian.Uint64(b[:8])
	req.CommitTS = binary.BigEndian.Uint64(b[8:16])
	var err error
	rest := b[16:]
	req.WriteSet, rest, err = parseRowsInto(rest, req.WriteSet)
	if err != nil {
		return nil, err
	}
	req.ReadSet, rest, err = parseRowsInto(rest, req.ReadSet)
	if err != nil {
		return nil, err
	}
	return rest, nil
}

// decodePrepareBatchReqInto decodes a prepare/commit-at batch reusing the
// scratch request slice and row-set arrays. A caller that keeps the decoded
// row sets past the call passes nil scratch.
func decodePrepareBatchReqInto(scratch []oracle.PrepareRequest, b []byte) ([]oracle.PrepareRequest, error) {
	if len(b) < 4 {
		return nil, ErrBadFrame
	}
	count := binary.BigEndian.Uint32(b[:4])
	rest := b[4:]
	if uint64(count)*24 > uint64(len(rest)) {
		return nil, ErrBadFrame
	}
	reqs := scratch
	if uint64(cap(reqs)) < uint64(count) {
		reqs = make([]oracle.PrepareRequest, count)
		copy(reqs, scratch[:cap(scratch)])
	}
	reqs = reqs[:count:cap(reqs)]
	var err error
	for i := range reqs {
		rest, err = parsePrepareReqInto(&reqs[i], rest)
		if err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, ErrBadFrame
	}
	return reqs, nil
}

// appendPrepareBatchReq renders a batch of prepare slices (also the
// commit-at-batch payload): count(u32) + concatenated encodings.
func appendPrepareBatchReq(b []byte, reqs []oracle.PrepareRequest) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(reqs)))
	b = append(b, n[:]...)
	for i := range reqs {
		b = encodePrepareReq(b, reqs[i])
	}
	return b
}

// appendVotesResp renders prepare votes: count(u32) + one byte per vote.
func appendVotesResp(b []byte, votes []bool) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(votes)))
	b = append(b, n[:]...)
	for _, v := range votes {
		if v {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

func decodeVotesResp(b []byte) ([]bool, error) {
	if len(b) < 4 {
		return nil, ErrBadFrame
	}
	count := binary.BigEndian.Uint32(b[:4])
	rest := b[4:]
	if uint64(len(rest)) != uint64(count) {
		return nil, ErrBadFrame
	}
	votes := make([]bool, count)
	for i := range votes {
		votes[i] = rest[i] == 1
	}
	return votes, nil
}

// appendDecideBatchReq renders a batch of verdicts: count(u32), then per
// decision commit(u8) startTS(u64) commitTS(u64).
func appendDecideBatchReq(b []byte, ds []oracle.Decision) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(ds)))
	b = append(b, n[:]...)
	for _, d := range ds {
		var e [17]byte
		if d.Commit {
			e[0] = 1
		}
		binary.BigEndian.PutUint64(e[1:9], d.StartTS)
		binary.BigEndian.PutUint64(e[9:17], d.CommitTS)
		b = append(b, e[:]...)
	}
	return b
}

func decodeDecideBatchReq(b []byte) ([]oracle.Decision, error) {
	if len(b) < 4 {
		return nil, ErrBadFrame
	}
	count := binary.BigEndian.Uint32(b[:4])
	rest := b[4:]
	if uint64(len(rest)) != uint64(count)*17 {
		return nil, ErrBadFrame
	}
	ds := make([]oracle.Decision, count)
	for i := range ds {
		ds[i] = oracle.Decision{
			Commit:   rest[0] == 1,
			StartTS:  binary.BigEndian.Uint64(rest[1:9]),
			CommitTS: binary.BigEndian.Uint64(rest[9:17]),
		}
		rest = rest[17:]
	}
	return ds, nil
}

// appendRespHdr starts a response body: reqID(u64) code(u8). Payload bytes
// are appended after it.
func appendRespHdr(b []byte, reqID uint64, code byte) []byte {
	b = appendU64(b, reqID)
	return append(b, code)
}

// respError renders an error response payload.
func respError(reqID uint64, err error) []byte {
	body := appendRespHdr(make([]byte, 0, 9+len(err.Error())), reqID, codeErr)
	return append(body, err.Error()...)
}

// splitResponse parses a response body.
func splitResponse(body []byte) (reqID uint64, code byte, payload []byte, err error) {
	if len(body) < 9 {
		return 0, 0, nil, ErrBadFrame
	}
	return binary.BigEndian.Uint64(body[:8]), body[8], body[9:], nil
}

// splitRequest parses a request body.
func splitRequest(body []byte) (reqID uint64, op byte, payload []byte, err error) {
	if len(body) < 9 {
		return 0, 0, nil, ErrBadFrame
	}
	return binary.BigEndian.Uint64(body[:8]), body[8], body[9:], nil
}

// appendRoutingPayload renders a routing table: epoch(u64) followed by the
// router spec as the rest of the payload. Shared by the opRouting response,
// the opSetRouting request, and the codeRedirect payload.
func appendRoutingPayload(b []byte, epoch uint64, spec string) []byte {
	b = appendU64(b, epoch)
	return append(b, spec...)
}

func parseRoutingPayload(b []byte) (epoch uint64, spec string, err error) {
	if len(b) < 8 {
		return 0, "", ErrBadFrame
	}
	return binary.BigEndian.Uint64(b[:8]), string(b[8:]), nil
}

// appendRangeReq renders a [lo, hi) operand (hi == 0 meaning end of the
// row-id space) for opExportRange / opDiscardRange.
func appendRangeReq(b []byte, lo, hi uint64) []byte {
	b = appendU64(b, lo)
	return appendU64(b, hi)
}

func parseRangeReq(b []byte) (lo, hi uint64, err error) {
	if len(b) != 16 {
		return 0, 0, ErrBadFrame
	}
	return binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:]), nil
}

// remoteError wraps an error string sent by the server.
type remoteError string

func (e remoteError) Error() string { return fmt.Sprintf("netsrv: server error: %s", string(e)) }
