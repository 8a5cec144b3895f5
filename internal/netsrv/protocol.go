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

// Operation codes. 2 and 4 (the retired single commit and single status
// query: one commit or lookup is a one-entry opCommitBatch or opQueryBatch),
// 6 (a retired commit-notification stream), 7 (a retired positional stats
// payload), 11 (a retired manual promote), 14 (a retired one-shot commit at
// coordinator-supplied timestamps) and 16-20 (the retired routing-table and
// range-migration ops of live repartitioning) are never reused: a server
// answers them, like any unknown op, with codeErr.
const (
	opBegin       = 1
	opAbort       = 3
	opForget      = 5
	opCommitBatch = 8
	opQueryBatch  = 9
	// opHealth reports whether the server is serving an oracle (a leader
	// or single primary) or not (a group follower), without touching the
	// oracle.
	opHealth = 10
	// The partitioned-oracle ops (internal/partition): phase one and two
	// of the commit protocol, and partition 0's publication of a round's
	// commits. opPublishCommits' request is a query batch's layout,
	// count(u32) then the start timestamps; its reply is lo(u64), the
	// first commit timestamp, followed by the failure's text when the
	// commits were published but their record failed to persist.
	opPrepareBatch   = 12
	opDecideBatch    = 13
	opPublishCommits = 15
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
	// codeMisrouted answers a prepare slice carrying rows the server's
	// router does not give its partition; the client reports it as
	// partition.ErrMisrouted. No payload.
	codeMisrouted = 3
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
	// leader is: epoch(u64) addr(string). The request was rejected before
	// execution, so the client may transparently re-dial the hinted address
	// and retry without ever double-submitting.
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
// followed by the concatenated request encodings.
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

// appendCommitBatchResp renders the decisions of a commit batch:
// count(u32) then per result committed(u8) commitTS(u64).
func appendCommitBatchResp(b []byte, results []oracle.CommitResult) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(results)))
	b = append(b, n[:]...)
	for _, res := range results {
		var e [9]byte
		if res.Committed {
			e[0] = 1
		}
		binary.BigEndian.PutUint64(e[1:], res.CommitTS)
		b = append(b, e[:]...)
	}
	return b
}

// decodeCommitBatchRespInto decodes a commit-batch response into out, which
// must have one entry per request sent: a reply of any other count is
// malformed. Nothing is written unless the whole payload is well formed.
func decodeCommitBatchRespInto(out []oracle.CommitResult, b []byte) error {
	if len(b) < 4 || uint64(binary.BigEndian.Uint32(b[:4])) != uint64(len(out)) ||
		len(b)-4 != len(out)*9 {
		return ErrBadFrame
	}
	rest := b[4:]
	for i := range out {
		out[i] = oracle.CommitResult{
			Committed: rest[0] == 1,
			CommitTS:  binary.BigEndian.Uint64(rest[1:9]),
		}
		rest = rest[9:]
	}
	return nil
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
// then per status status(u8) commitTS(u64).
func appendQueryBatchResp(b []byte, statuses []oracle.TxnStatus) []byte {
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(len(statuses)))
	b = append(b, n[:]...)
	for _, st := range statuses {
		b = append(b, byte(st.Status))
		b = appendU64(b, st.CommitTS)
	}
	return b
}

// decodeQueryBatchRespInto decodes a query-batch response into out, which
// must have one entry per lookup sent: a reply of any other count is
// malformed. Nothing is written unless the whole payload is well formed.
func decodeQueryBatchRespInto(out []oracle.TxnStatus, b []byte) error {
	if len(b) < 4 || uint64(binary.BigEndian.Uint32(b[:4])) != uint64(len(out)) ||
		len(b)-4 != len(out)*9 {
		return ErrBadFrame
	}
	rest := b[4:]
	for i := range out {
		out[i] = oracle.TxnStatus{
			Status:   oracle.Status(rest[0]),
			CommitTS: binary.BigEndian.Uint64(rest[1:9]),
		}
		rest = rest[9:]
	}
	return nil
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

// encodePrepareReq renders one prepare slice: startTS, write rows, read
// rows. A prepare-batch payload is a count-prefixed concatenation of
// these.
func encodePrepareReq(b []byte, req oracle.PrepareRequest) []byte {
	b = appendU64(b, req.StartTS)
	b = appendRows(b, req.WriteSet)
	b = appendRows(b, req.ReadSet)
	return b
}

// parsePrepareReqInto decodes one prepare slice in place, reusing req's
// row-set backing arrays.
func parsePrepareReqInto(req *oracle.PrepareRequest, b []byte) ([]byte, error) {
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

// decodePrepareBatchReq decodes a prepare batch into freshly allocated
// requests and row sets: the oracle keeps them until the decide arrives.
func decodePrepareBatchReq(b []byte) ([]oracle.PrepareRequest, error) {
	if len(b) < 4 {
		return nil, ErrBadFrame
	}
	count := binary.BigEndian.Uint32(b[:4])
	rest := b[4:]
	if uint64(count)*16 > uint64(len(rest)) {
		return nil, ErrBadFrame
	}
	reqs := make([]oracle.PrepareRequest, count)
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

// appendPrepareBatchReq renders a batch of prepare slices: count(u32) +
// concatenated encodings.
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

// parsePublishResp decodes an opPublishCommits reply: lo, and the error
// the server reported after publishing, if any.
func parsePublishResp(b []byte) (uint64, error) {
	if len(b) < 8 {
		return 0, ErrBadFrame
	}
	lo := binary.BigEndian.Uint64(b[:8])
	if len(b) > 8 {
		return lo, remoteError(b[8:])
	}
	return lo, nil
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

// appendLeaderHint renders a codeNotLeader payload: the epoch (u64)
// followed by the leader's address as the rest of the payload.
func appendLeaderHint(b []byte, epoch uint64, addr string) []byte {
	b = appendU64(b, epoch)
	return append(b, addr...)
}

func parseLeaderHint(b []byte) (epoch uint64, addr string, err error) {
	if len(b) < 8 {
		return 0, "", ErrBadFrame
	}
	return binary.BigEndian.Uint64(b[:8]), string(b[8:]), nil
}

// remoteError wraps an error string sent by the server.
type remoteError string

func (e remoteError) Error() string { return fmt.Sprintf("netsrv: server error: %s", string(e)) }
