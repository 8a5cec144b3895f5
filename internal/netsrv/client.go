package netsrv

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/partition"
)

// Client is a pipelined network client for the status oracle. It satisfies
// txn.Arbiter and txn.BatchQuerier, so the transaction layer works unchanged
// whether the oracle is in-process or remote. Any number of goroutines may
// issue requests concurrently; they share one connection and are matched to
// responses by request id.
//
// A client created with DialFailover additionally reconnects: when the
// connection is lost, the next call re-dials the configured addresses in
// round-robin order (so it finds the newly elected leader after a failover).
// Requests that were in flight when the connection died still fail — the
// client never resubmits them, because a lost commit ack is in-doubt, not
// retriable; the transaction layer resolves those by querying the status
// of its start timestamp on the new primary.
type Client struct {
	addr  string
	addrs []string // failover set; empty disables reconnection

	// Reconnect pacing (set by DialFailover): between full sweeps of the
	// address set, the client sleeps a jittered exponential backoff
	// starting at backoffBase and capped at backoffCap, until redialBudget
	// has elapsed. Zero values disable the retry sweeps (one pass, as the
	// pre-group client behaved).
	backoffBase  time.Duration
	backoffCap   time.Duration
	redialBudget time.Duration

	// reconnectMu serializes reconnection attempts; it is taken WITHOUT
	// c.mu so the dials never stall concurrent calls on a live
	// connection, Close, or the read loop.
	reconnectMu sync.Mutex

	mu      sync.Mutex
	conn    net.Conn
	w       *connWriter // conn's write path; created and replaced with it
	cur     int         // index into addrs of the live connection
	hint    string      // leader address learned from a codeNotLeader redirect
	nextID  uint64
	pending map[uint64]chan response
	err     error // connection failure; reconnectable unless closed
	closed  bool
}

type response struct {
	code    byte
	payload []byte
	buf     *[]byte // pooled backing buffer; released via putRespBuf
	err     error
}

// Package pools of the client hot path. Request payloads are encoded into
// pooled buffers (released when call returns — the connection writer copies
// them into its pending buffer first), response bodies are read into
// pooled buffers (released by each method once the payload is decoded),
// and the one-shot response channels ping-pong through their own pool.
var (
	payloadPool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 512); return &b }}
	respBufPool = sync.Pool{New: func() interface{} { b := make([]byte, 0, 512); return &b }}
	respChPool  = sync.Pool{New: func() interface{} { return make(chan response, 1) }}
)

func getPayloadBuf() *[]byte { return payloadPool.Get().(*[]byte) }

func putPayloadBuf(b *[]byte) {
	if cap(*b) <= maxRetainedWriteBuf {
		payloadPool.Put(b)
	}
}

// putRespBuf releases a response's pooled body after its payload has been
// decoded. Safe on responses without one (error responses). Oversized
// one-off buffers go to the GC instead of pinning their capacity in the
// pool.
func putRespBuf(r response) {
	if r.buf != nil && cap(*r.buf) <= maxRetainedWriteBuf {
		respBufPool.Put(r.buf)
	}
}

// Dial connects to a status oracle server. The returned client does not
// reconnect; use DialFailover for that.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{addr: addr, pending: make(map[uint64]chan response)}
	c.attach(conn)
	return c, nil
}

// attach makes conn the client's live connection: its writer (default
// pending bound and stall timeout, as on the server) and its read loop.
// Caller holds c.mu, or has not published c yet.
func (c *Client) attach(conn net.Conn) {
	c.conn = conn
	c.w = newConnWriter(conn, 0, 0, nil)
	go c.readLoop(conn)
}

// dialTimeout bounds each reconnection attempt so a dead address cannot
// stall a failover longer than the next address would take to answer.
const dialTimeout = time.Second

// Reconnect pacing defaults: a lost leader is usually re-elected within a
// couple of lease durations, so the sweeps start fast (a few ms) and back
// off exponentially with jitter — a thundering herd of clients re-dialing a
// freshly elected leader spreads out instead of arriving in lockstep. The
// budget bounds how long one call may block in reconnection before its
// error surfaces to the caller.
const (
	defaultBackoffBase  = 2 * time.Millisecond
	defaultBackoffCap   = 250 * time.Millisecond
	defaultRedialBudget = 3 * time.Second
)

// NotLeaderError reports a data operation sent to a replicated-group member
// that is not the leader, carrying the member's belief of where the leader
// is. The failover client follows the hint transparently (the server
// rejected the request before executing it, so the retry can never
// double-submit); it surfaces only when the hint cannot be followed.
type NotLeaderError struct {
	Epoch uint64
	Addr  string
}

func (e *NotLeaderError) Error() string {
	if e.Addr == "" {
		return "netsrv: not the group leader"
	}
	return fmt.Sprintf("netsrv: not the group leader (epoch %d at %s)", e.Epoch, e.Addr)
}

// DialFailover connects to the first reachable address and fails over
// across the whole set on connection loss: re-dials sweep the set with
// jittered exponential backoff until the redial budget elapses, and a
// codeNotLeader redirect steers the next dial straight at the hinted
// leader. The set should list the whole group; order only biases the first
// connection.
func DialFailover(addrs ...string) (*Client, error) {
	if len(addrs) == 0 {
		return nil, errors.New("netsrv: DialFailover needs at least one address")
	}
	var firstErr error
	for i, addr := range addrs {
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c := &Client{
			addr: addr, addrs: addrs, cur: i,
			pending:      make(map[uint64]chan response),
			backoffBase:  defaultBackoffBase,
			backoffCap:   defaultBackoffCap,
			redialBudget: defaultRedialBudget,
		}
		c.attach(conn)
		return c, nil
	}
	return nil, fmt.Errorf("netsrv: no address reachable: %w", firstErr)
}

// reconnect re-dials the failover set — the redirect hint (leader address
// learned from a codeNotLeader reply) first, then the configured addresses
// starting after the one that just failed. Failed sweeps repeat with
// jittered exponential backoff until the redial budget elapses. The dials
// run outside c.mu (under reconnectMu, so only one goroutine sweeps at a
// time); c.mu is retaken only to install the new connection. Returns nil
// once the client has a live connection — whether established by this call
// or by a racing one.
func (c *Client) reconnect() error {
	c.reconnectMu.Lock()
	defer c.reconnectMu.Unlock()
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		return err
	}
	if c.err == nil {
		c.mu.Unlock()
		return nil // a racing caller already reconnected
	}
	lastErr := c.err
	c.mu.Unlock()

	var deadline time.Time
	if c.redialBudget > 0 {
		deadline = time.Now().Add(c.redialBudget)
	}
	backoff := c.backoffBase
	if backoff <= 0 {
		backoff = defaultBackoffBase
	}
	for {
		c.mu.Lock()
		hint, cur, addrs := c.hint, c.cur, c.addrs
		c.mu.Unlock()
		// One sweep: hinted leader first, then round-robin from the
		// address after the one that failed.
		try := make([]string, 0, len(addrs)+1)
		if hint != "" {
			try = append(try, hint)
		}
		for i := 1; i <= len(addrs); i++ {
			if a := addrs[(cur+i)%len(addrs)]; a != hint {
				try = append(try, a)
			}
		}
		for _, addr := range try {
			conn, err := net.DialTimeout("tcp", addr, dialTimeout)
			if err != nil {
				lastErr = err
				continue
			}
			c.mu.Lock()
			if c.closed {
				err := c.err
				c.mu.Unlock()
				conn.Close()
				return err
			}
			c.attach(conn)
			c.addr = addr
			for i, a := range addrs {
				if a == addr {
					c.cur = i
					break
				}
			}
			c.err = nil
			c.mu.Unlock()
			return nil
		}
		if deadline.IsZero() || !time.Now().Before(deadline) {
			return lastErr
		}
		// Jittered exponential backoff between sweeps: sleep in
		// [backoff/2, backoff) so reconnecting clients spread out.
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
		if backoff *= 2; backoff > c.backoffCap && c.backoffCap > 0 {
			backoff = c.backoffCap
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return lastErr
		}
	}
}

// Close tears down the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.failLocked(errors.New("netsrv: client closed"))
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}

// failLocked completes all pending calls with err. Caller holds c.mu.
func (c *Client) failLocked(err error) {
	if c.err == nil {
		c.err = err
	}
	for id, ch := range c.pending {
		ch <- response{err: c.err}
		delete(c.pending, id)
	}
}

func (c *Client) readLoop(conn net.Conn) {
	// failConn fails pending calls only while conn is still the client's
	// live connection: after a reconnect, a stale read loop unwinding on
	// the old conn must not clobber the new one's state.
	failConn := func(err error) {
		c.mu.Lock()
		if c.conn == conn {
			c.failLocked(err)
		}
		c.mu.Unlock()
	}
	br := bufio.NewReaderSize(conn, connReadBuf)
	for {
		// Each response body lands in a pooled buffer whose ownership
		// travels with the response; the caller releases it after decoding.
		buf := respBufPool.Get().(*[]byte)
		body, err := readFrameInto(br, (*buf)[:cap(*buf)])
		if err != nil {
			respBufPool.Put(buf)
			failConn(fmt.Errorf("netsrv: connection lost: %w", err))
			return
		}
		*buf = body[:len(body):cap(body)]
		reqID, code, payload, err := splitResponse(body)
		if err != nil {
			respBufPool.Put(buf)
			failConn(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[reqID]
		delete(c.pending, reqID)
		c.mu.Unlock()
		if ok {
			ch <- response{code: code, payload: payload, buf: buf}
		} else {
			respBufPool.Put(buf)
		}
	}
}

// callResp issues one request and waits for its response. On a lost
// connection, a failover client re-dials its address set first; the call
// then proceeds on the new connection (it was never sent on the old one,
// so no request is ever submitted twice).
//
// The returned response's payload aliases a pooled buffer: the caller must
// decode it and then release it with putRespBuf. The connection writer
// copies the request into its pending buffer, so the payload argument is
// free for reuse on return.
func (c *Client) callResp(op byte, payload []byte) (response, error) {
	return c.callRespEnv(op, payload, nil)
}

// maxLeaderRedirects bounds how many codeNotLeader hints one call will
// chase before surfacing the NotLeaderError (a partitioned group whose
// members point at each other must not loop forever).
const maxLeaderRedirects = 2

// callRespEnv is callResp with an optional ingress envelope: when env is
// non-nil the request travels as opEnvelope carrying tenant, session and
// deadline budget, and the inner op rides inside. Session mux handles go
// through here; bare clients pass nil and stay wire-identical to old peers.
//
// A codeNotLeader reply is followed transparently: the member rejected the
// request before executing it, so re-dialing the hinted leader and
// resending is safe — unlike a lost connection, where the in-flight
// request is in doubt and must never be resubmitted.
func (c *Client) callRespEnv(op byte, payload []byte, env *envelope) (response, error) {
	for redirects := 0; ; redirects++ {
		resp, err := c.callRespOnce(op, payload, env)
		if err != nil && redirects < maxLeaderRedirects {
			var nl *NotLeaderError
			if errors.As(err, &nl) && c.followLeader(nl.Addr) {
				continue
			}
		}
		return resp, err
	}
}

// followLeader points the client at the hinted leader address and
// reconnects there, reporting whether a retry is worthwhile. In-flight
// requests on the abandoned connection fail exactly as on a connection
// loss (in doubt, settled via ResolveStatus); the hinted redial itself is
// biased to the leader by reconnect's hint preference.
func (c *Client) followLeader(addr string) bool {
	if addr == "" {
		return false
	}
	c.mu.Lock()
	if c.closed || len(c.addrs) == 0 {
		c.mu.Unlock()
		return false
	}
	if c.err == nil && c.addr == addr {
		// Already connected to the hinted address and it still refuses:
		// the hint is stale (e.g. a deposed leader that has not noticed
		// yet); surface the error instead of spinning.
		c.mu.Unlock()
		return false
	}
	c.hint = addr
	if c.err == nil {
		conn := c.conn
		c.failLocked(fmt.Errorf("netsrv: redirected to leader at %s", addr))
		conn.Close()
	}
	c.mu.Unlock()
	return c.reconnect() == nil
}

// callRespOnce issues one request on the current connection (reconnecting
// first if it is down) and decodes the response codes into typed errors.
func (c *Client) callRespOnce(op byte, payload []byte, env *envelope) (response, error) {
	ch := respChPool.Get().(chan response)
	c.mu.Lock()
	if c.err != nil {
		if c.closed || len(c.addrs) == 0 {
			err := c.err
			c.mu.Unlock()
			respChPool.Put(ch)
			return response{}, err
		}
		c.mu.Unlock()
		if err := c.reconnect(); err != nil {
			respChPool.Put(ch)
			return response{}, err
		}
		c.mu.Lock()
		if c.err != nil {
			// The fresh connection died before we could use it.
			err := c.err
			c.mu.Unlock()
			respChPool.Put(ch)
			return response{}, err
		}
	}
	w := c.w
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()
	// Body: reqID(u64) op(u8) payload. An enveloped request inserts the
	// 10-byte ingress header between the op (rewritten to opEnvelope) and
	// the payload. The send happens outside c.mu, so a stalled peer blocks
	// neither readLoop's delivery of responses already received nor other
	// callers; its error is not needed here: a write failure closes the
	// connection, and readLoop then fails every pending call, this one
	// included. The request is queued on w exactly once and never resent.
	var hdr [9 + envelopeLen + 1]byte
	head := appendU64(hdr[:0], id)
	if env != nil {
		head = appendEnvelope(append(head, opEnvelope), *env, op)
	} else {
		head = append(head, op)
	}
	_ = w.send(head, payload)

	resp := <-ch
	respChPool.Put(ch)
	if resp.err != nil {
		return response{}, resp.err
	}
	if resp.code == codeErr {
		err := remoteError(resp.payload)
		putRespBuf(resp)
		return response{}, err
	}
	if resp.code == codeMisrouted {
		putRespBuf(resp)
		return response{}, partition.ErrMisrouted
	}
	if resp.code == codeOverload {
		err := shedError(resp.payload)
		putRespBuf(resp)
		return response{}, err
	}
	if resp.code == codeExpired {
		putRespBuf(resp)
		return response{}, ErrDeadlineExceeded
	}
	if resp.code == codeNotLeader {
		// The member is not the group leader; its hint names the member
		// it believes is. callRespEnv chases the hint transparently.
		epoch, addr, perr := parseLeaderHint(resp.payload)
		putRespBuf(resp)
		if perr != nil {
			return response{}, perr
		}
		return response{}, &NotLeaderError{Epoch: epoch, Addr: addr}
	}
	return resp, nil
}

// call is callResp for cold paths: the payload is copied so no pooled
// buffer escapes.
func (c *Client) call(op byte, payload []byte) ([]byte, error) {
	resp, err := c.callResp(op, payload)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), resp.payload...)
	putRespBuf(resp)
	return out, nil
}

// Begin requests a start timestamp.
func (c *Client) Begin() (uint64, error) {
	resp, err := c.callResp(opBegin, nil)
	if err != nil {
		return 0, err
	}
	ts, err := parseU64(resp.payload)
	putRespBuf(resp)
	return ts, err
}

// Commit submits a commit request as a one-request commit batch.
func (c *Client) Commit(req oracle.CommitRequest) (oracle.CommitResult, error) {
	return c.commitOne(req, nil)
}

// CommitBatch submits a batch of commit requests as one frame; the server
// decides them in request order through the oracle's batched commit path.
func (c *Client) CommitBatch(reqs []oracle.CommitRequest) ([]oracle.CommitResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	out := make([]oracle.CommitResult, len(reqs))
	if err := c.commitBatch(reqs, out, nil); err != nil {
		return nil, err
	}
	return out, nil
}

// commitBatch is the one commit exchange of every transport: reqs travel as
// one opCommitBatch frame, enveloped when env is non-nil, and out[i]
// receives the decision on reqs[i].
func (c *Client) commitBatch(reqs []oracle.CommitRequest, out []oracle.CommitResult, env *envelope) error {
	pb := getPayloadBuf()
	*pb = appendCommitBatchReq((*pb)[:0], reqs)
	resp, err := c.callRespEnv(opCommitBatch, *pb, env)
	putPayloadBuf(pb)
	if err != nil {
		return err
	}
	err = decodeCommitBatchRespInto(out, resp.payload)
	putRespBuf(resp)
	return err
}

// commitOne is commitBatch for one request, on stack arrays.
func (c *Client) commitOne(req oracle.CommitRequest, env *envelope) (oracle.CommitResult, error) {
	reqs := [1]oracle.CommitRequest{req}
	var out [1]oracle.CommitResult
	if err := c.commitBatch(reqs[:], out[:], env); err != nil {
		return oracle.CommitResult{}, err
	}
	return out[0], nil
}

// Abort records an explicit abort.
func (c *Client) Abort(startTS uint64) error {
	resp, err := c.callResp(opAbort, u64(startTS))
	if err != nil {
		return err
	}
	putRespBuf(resp)
	return nil
}

// BeginBlock allocates n consecutive timestamps in one round trip and
// returns the lowest; the partitioned coordinator draws its
// commit-timestamp blocks through it.
func (c *Client) BeginBlock(n int) (uint64, error) {
	resp, err := c.callResp(opBeginBlock, u64(uint64(n)))
	if err != nil {
		return 0, err
	}
	lo, err := parseU64(resp.payload)
	putRespBuf(resp)
	return lo, err
}

// PrepareBatch runs phase one of the two-phase partitioned commit on this
// partition server: one frame carries the batch's prepare slices, one
// frame returns the votes.
func (c *Client) PrepareBatch(reqs []oracle.PrepareRequest) ([]bool, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	pb := getPayloadBuf()
	*pb = appendPrepareBatchReq((*pb)[:0], reqs)
	resp, err := c.callResp(opPrepareBatch, *pb)
	putPayloadBuf(pb)
	if err != nil {
		return nil, err
	}
	votes, err := decodeVotesResp(resp.payload)
	putRespBuf(resp)
	if err != nil {
		return nil, err
	}
	if len(votes) != len(reqs) {
		return nil, ErrBadFrame
	}
	return votes, nil
}

// DecideBatch fans a batch of coordinator verdicts to this partition
// server.
func (c *Client) DecideBatch(ds []oracle.Decision) error {
	if len(ds) == 0 {
		return nil
	}
	pb := getPayloadBuf()
	*pb = appendDecideBatchReq((*pb)[:0], ds)
	resp, err := c.callResp(opDecideBatch, *pb)
	putPayloadBuf(pb)
	if err != nil {
		return err
	}
	putRespBuf(resp)
	return nil
}

// Query asks for a transaction's status as a one-lookup query batch.
func (c *Client) Query(startTS uint64) oracle.TxnStatus {
	// The Arbiter interface has no error path for Query; on an error st is
	// zero, which is pending: the safe answer (the reader skips the
	// version and may retry).
	st, _ := c.queryOne(startTS, nil)
	return st
}

// QueryBatch resolves many transaction statuses in one round trip — one
// request frame, one opQueryBatch server call, one response frame — instead
// of one per lookup. result[i] answers startTSs[i]. Like Query, it has no
// error path: on a transport failure every lookup degrades to pending (the
// reader skips the versions and may retry).
func (c *Client) QueryBatch(startTSs []uint64) []oracle.TxnStatus {
	out := make([]oracle.TxnStatus, len(startTSs))
	if len(startTSs) > 0 {
		_ = c.queryBatch(startTSs, out, nil) // on an error out is untouched: all pending
	}
	return out
}

// queryBatch is the one status exchange of every transport: startTSs travel
// as one opQueryBatch frame, enveloped when env is non-nil, and out[i]
// receives the status of startTSs[i]. On an error out is left as it was.
func (c *Client) queryBatch(startTSs []uint64, out []oracle.TxnStatus, env *envelope) error {
	pb := getPayloadBuf()
	*pb = appendQueryBatchReq((*pb)[:0], startTSs)
	resp, err := c.callRespEnv(opQueryBatch, *pb, env)
	putPayloadBuf(pb)
	if err != nil {
		return err
	}
	err = decodeQueryBatchRespInto(out, resp.payload)
	putRespBuf(resp)
	return err
}

// queryOne is queryBatch for one lookup, on stack arrays.
func (c *Client) queryOne(startTS uint64, env *envelope) (oracle.TxnStatus, error) {
	tss := [1]uint64{startTS}
	var out [1]oracle.TxnStatus
	err := c.queryBatch(tss[:], out[:], env)
	return out[0], err
}

// Forget drops an aborted transaction's record after cleanup.
func (c *Client) Forget(startTS uint64) {
	resp, err := c.callResp(opForget, u64(startTS))
	if err == nil {
		putRespBuf(resp)
	}
}

// Metrics gathers the server's self-describing metrics registry: every
// named counter, gauge and histogram summary the server's subsystems
// registered, in deterministic family-major order. The wire encoding is
// length-prefixed per sample, so a client of any vintage decodes whatever
// subset it understands.
func (c *Client) Metrics() ([]metrics.Sample, error) {
	payload, err := c.call(opMetrics, nil)
	if err != nil {
		return nil, err
	}
	return metrics.DecodeSamples(payload)
}

// Health reports the server's role: "primary" when it serves an oracle,
// "standby" while it has none (a group follower).
func (c *Client) Health() (string, error) {
	payload, err := c.call(opHealth, nil)
	if err != nil {
		return "", err
	}
	if len(payload) != 1 {
		return "", ErrBadFrame
	}
	if payload[0] == rolePrimary {
		return "primary", nil
	}
	return "standby", nil
}

// ResolveStatus is the error-aware status lookup the transaction layer
// uses to settle in-doubt commits after a transport failure: unlike Query,
// which degrades to pending, it reports whether the answer actually came
// from a server. It rides the batched query op, so the answer reflects the
// (possibly newly promoted) server's commit table — and a group member
// that is not leading still answers it from its standby shadow.
func (c *Client) ResolveStatus(startTS uint64) (oracle.TxnStatus, error) {
	return c.queryOne(startTS, nil)
}

// ResolveStatusCtx is ResolveStatus bounded by ctx: the context's remaining
// budget travels in the request envelope (so server-side parking honors
// it), and the client-side wait — including any reconnection backoff the
// failover path performs — is abandoned when ctx expires. The transaction
// layer uses it to bound how long an in-doubt settlement may block.
func (c *Client) ResolveStatusCtx(ctx context.Context, startTS uint64) (oracle.TxnStatus, error) {
	if err := ctx.Err(); err != nil {
		return oracle.TxnStatus{}, err
	}
	var env *envelope
	if dl, ok := ctx.Deadline(); ok {
		remain := time.Until(dl)
		if remain <= 0 {
			return oracle.TxnStatus{}, context.DeadlineExceeded
		}
		us := remain.Microseconds()
		if us <= 0 {
			us = 1
		}
		if us > maxDeadlineMicros {
			us = maxDeadlineMicros
		}
		env = &envelope{deadline: uint32(us)}
	}
	type result struct {
		st  oracle.TxnStatus
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := c.queryOne(startTS, env)
		done <- result{st, err}
	}()
	select {
	case <-ctx.Done():
		// The lookup keeps running in the background (bounded by the
		// redial budget) but the caller stops waiting for it.
		return oracle.TxnStatus{}, ctx.Err()
	case r := <-done:
		return r.st, r.err
	}
}
