package netsrv

import (
	"bufio"
	"errors"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/partition"
	"repro/internal/wal"
)

// Server serves a status oracle over TCP. Requests on one connection are
// handled concurrently (the commit path blocks on the WAL group commit, so
// serial handling would needlessly batch latencies); responses carry the
// request id and may arrive out of order.
//
// A server may also start in standby role (NewStandbyServer): it rejects
// data operations until a replicated-group member that wins an election
// installs its oracle (Install).
type Server struct {
	so        atomic.Pointer[oracle.StatusOracle]
	ln        net.Listener
	coal      atomic.Pointer[coalescer]
	promoteMu sync.Mutex

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	// Logf, when set, receives per-connection error logs (defaults to
	// log.Printf; tests silence it).
	Logf func(format string, args ...interface{})

	// LeaderHint, when set, marks this server as one member of a
	// self-healing replicated group: data operations that arrive while the
	// member is not leading (or after its oracle was fenced mid-request)
	// answer codeNotLeader carrying the hint's (epoch, addr), so a failover
	// client re-dials the leader instead of failing. An empty addr falls
	// back to a plain ErrStandby error. Set before Listen.
	LeaderHint func() (epoch uint64, addr string)

	// StandbyReads, when set alongside LeaderHint, serves opQueryBatch
	// from the member's local standby shadow while it is not leading:
	// stale-bounded reads stay available through elections. The callback
	// follows QueryBatchInto conventions (scratch reuse); ok false means no
	// shadow is attached yet and the request is answered codeNotLeader like
	// any other data op. Set before Listen.
	StandbyReads func(startTSs []uint64, scratch []oracle.TxnStatus) ([]oracle.TxnStatus, bool)

	// Router and PartitionID identify this server's slice of a partitioned
	// deployment. With a Router set, prepare requests carrying rows it does
	// not give PartitionID answer codeMisrouted before they can touch the
	// partition's slice of the conflict state; without one the server owns
	// every row. Every server and coordinator of a deployment must share
	// one router. Set both before Listen; neither changes afterwards.
	Router      partition.Router
	PartitionID int

	// CoalesceMaxBatch, when > 0, enables the server-side commit
	// coalescer: concurrent one-request commit-batch frames are accumulated
	// into oracle commit batches of up to this size, cut when full or when
	// no decide is in flight (oracle.Batcher). Set before Listen. Frames of
	// several requests bypass it — they are already batches — and status
	// lookups are answered inline: they are decided in memory, so there is
	// no busy stage for a batch to form behind.
	CoalesceMaxBatch int
	// Deprecated: ignored, no timer cuts a batch; only benchmark/ still sets it.
	CoalesceMaxDelay time.Duration

	// Ingress, when set, puts every data-plane request through the
	// admission gate: bounded per-tenant queues with weighted round-robin,
	// per-tenant token buckets, a shared inflight limit and a session cap.
	// Requests beyond the limits are shed at the frame boundary with a
	// codeOverload reply instead of queuing forever. Set before Listen.
	Ingress *IngressConfig
	adm     *admitter

	// IdleTimeout, when > 0, disconnects a connection that sends no frame
	// for this long, so dead clients stop pinning goroutines (and their
	// pooled buffers) forever. Set before Listen.
	IdleTimeout time.Duration

	// MaxPendingBytes caps the per-connection pending write buffer: a
	// handler whose response would grow the buffer past the cap blocks
	// (backpressure) until the flusher drains it, and a reader that stalls
	// the flusher longer than WriteStallTimeout is disconnected. 0 picks
	// defaultMaxPendingBytes; set -1 for the old unbounded behavior.
	MaxPendingBytes   int
	WriteStallTimeout time.Duration

	// sessions is the server-wide gauge of live multiplexed sessions
	// (distinct envelope session ids across all connections).
	sessions atomic.Int64

	// ctxPool recycles per-request handler contexts (frame read buffer,
	// decode scratch, response build buffer); poolHits/poolMisses feed the
	// netsrv_pooled_frame_{hits,misses}_total counters.
	ctxPool              sync.Pool
	poolHits, poolMisses atomic.Int64

	// wire counts frames and syscalls over all connections, both directions.
	wire wireStats

	// SlowThreshold, when > 0, makes requests whose total server-side
	// residence time meets it emit one structured slow-request log line with
	// all stage timings (1 in TraceSample of them; 0 or 1 logs every one).
	// Set before Listen.
	SlowThreshold time.Duration
	TraceSample   int

	// DisableTracing turns the request lifecycle tracing off entirely (no
	// span stamps, no stage histograms, no slow log). Exists for the
	// benchmark to measure the instrumentation's own overhead; production
	// leaves tracing always on. Set before Listen.
	DisableTracing bool
	traceOn        atomic.Bool

	// AnomalySample is the initial sampled fraction of commit decisions
	// recorded into the anomaly tap (0 disables the tap — unsampled
	// decisions cost one atomic load). Set before Listen; adjust at
	// runtime with SetAnomalySampling. The tap feeds a streaming checker
	// whose verdicts surface as the history_* metric family.
	AnomalySample float64
	anomTap       *history.Tap
	anomChecker   *history.Streaming
	anomStop      func()

	// The observability plane: stage-delta histograms per op class, the
	// self-describing registry behind opMetrics and the debug endpoints,
	// and the slow-request sampling sequence.
	stage   [numOpClasses][numStageHists]metrics.AtomicHistogram
	reg     *metrics.Registry
	regOnce sync.Once
	slowSeq atomic.Int64
}

// handlerCtx is the reusable scratch of one in-flight request: the raw
// frame, the decoded request structures (row-set arrays reused across
// requests), and the buffer the response is built into. One context is
// checked out of the server pool per frame and returned once the response
// has been handed to the connection writer, so a steady request rate is
// served with zero per-request allocation.
type handlerCtx struct {
	body    []byte                 // raw frame (request body)
	resp    []byte                 // response build buffer
	reqs    []oracle.CommitRequest // commit-batch decode scratch
	tss     []uint64               // query-batch decode scratch
	results []oracle.CommitResult  // CommitBatchInto result scratch
	sts     []oracle.TxnStatus     // QueryBatchInto result scratch
	span    metrics.Span           // request lifecycle trace, embedded so tracing allocates nothing
	op      byte                   // unwrapped op code, for per-class stage histograms
}

// getCtx checks a handler context out of the pool.
func (s *Server) getCtx() *handlerCtx {
	if c, ok := s.ctxPool.Get().(*handlerCtx); ok {
		s.poolHits.Add(1)
		return c
	}
	s.poolMisses.Add(1)
	return &handlerCtx{}
}

// putCtx returns a context once its response is buffered for write.
func (s *Server) putCtx(c *handlerCtx) {
	const maxRetained = 1 << 20
	if cap(c.body) > maxRetained || cap(c.resp) > maxRetained {
		return // oversized one-off; let the GC have it
	}
	s.ctxPool.Put(c)
}

// NewServer wraps a status oracle for network service.
func NewServer(so *oracle.StatusOracle) *Server {
	s := &Server{conns: make(map[net.Conn]struct{}), Logf: log.Printf}
	s.so.Store(so)
	s.initAnomaly()
	return s
}

// NewStandbyServer creates a server in standby role: every data operation
// is rejected with ErrStandby (or redirected, with a LeaderHint) until
// Install hands it an oracle to serve.
func NewStandbyServer() *Server {
	s := &Server{conns: make(map[net.Conn]struct{}), Logf: log.Printf}
	s.initAnomaly()
	return s
}

// ErrStandby is returned (over the wire) for data operations sent to a
// standby server that has not been promoted yet.
var ErrStandby = errors.New("netsrv: standby: not serving until promoted")

// oracle returns the serving oracle, nil while in standby role.
func (s *Server) oracle() *oracle.StatusOracle { return s.so.Load() }

// Promoted reports whether the server is serving an oracle.
func (s *Server) Promoted() bool { return s.oracle() != nil }

// Install makes the server serve so, replacing (and stopping) the
// coalescer of any previously served oracle. A group member's OnLead
// callback installs its freshly promoted oracle here; handlers racing the
// swap fail cleanly (the stopped coalescer rejects parked submits, and the
// fenced old oracle rejects appends), never serve torn state.
func (s *Server) Install(so *oracle.StatusOracle) {
	s.promoteMu.Lock()
	defer s.promoteMu.Unlock()
	s.stopCoalescer()
	if so != nil {
		s.startCoalescer(so)
	}
	s.so.Store(so)
}

// Depose returns the server to standby role: data operations answer
// codeNotLeader (or ErrStandby without a LeaderHint) until the next
// Install. A group member's OnFollow callback calls it when the member
// steps down after losing its lease.
func (s *Server) Depose() { s.Install(nil) }

// stopCoalescer detaches and stops the running coalescer; submits parked
// in it fail with ErrServerClosed. Caller holds promoteMu (or is Close,
// after the handler drain).
func (s *Server) stopCoalescer() {
	if c := s.coal.Swap(nil); c != nil {
		c.stop()
	}
}

// Listen starts accepting on addr ("host:port"; ":0" picks a free port) and
// returns the bound address. Serve loops run in background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.Serve(ln)
	return ln.Addr().String(), nil
}

// Serve starts accepting connections from ln — the bring-your-own-listener
// sibling of Listen (tests inject listeners that fail Accept to exercise
// the backoff path).
func (s *Server) Serve(ln net.Listener) {
	if so := s.oracle(); so != nil {
		s.startCoalescer(so)
	}
	if s.Ingress != nil {
		s.adm = newAdmitter(*s.Ingress)
	}
	s.traceOn.Store(!s.DisableTracing)
	s.anomTap.SetSampling(s.AnomalySample)
	s.anomStop = s.anomChecker.Run(s.anomTap, anomalyDrainInterval)
	s.Registry() // materialize the metrics plane before the first request
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
}

// SetTracing enables or disables lifecycle tracing at runtime. A request in
// flight across the flip may be stamped on one side only; recordSpan drops
// such partial spans, so the histograms never see a torn lifecycle. The
// benchmark toggles this to interleave traced and untraced measurement
// slices under one continuous load.
func (s *Server) SetTracing(enabled bool) { s.traceOn.Store(enabled) }

// Addr returns the listening address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Accept-loop backoff bounds for temporary Accept errors (EMFILE,
// ECONNABORTED, …): the loop sleeps with exponential backoff instead of
// either spinning or dying, and resets on the next successful accept.
const (
	acceptBackoffMin = 5 * time.Millisecond
	acceptBackoffMax = 1 * time.Second
)

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return
			}
			// Temporary failure (out of fds, aborted handshake): back
			// off and keep accepting rather than killing the front door.
			if backoff == 0 {
				backoff = acceptBackoffMin
			} else if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			s.logf("netsrv: accept: %v (retrying in %v)", err, backoff)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops the listener and all connections, then waits for handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	// Requests parked in the admission queues must fail before the handler
	// drain below, or their goroutines would wait forever for a grant.
	if s.adm != nil {
		s.adm.close()
	}
	// Handlers drain first (requests parked in the coalescer still get
	// their decisions), then its loop is stopped.
	s.wg.Wait()
	s.stopCoalescer()
	if s.anomStop != nil {
		s.anomStop() // final drain: every recorded decision is checked
	}
	return err
}

// startCoalescer builds the server-side commit coalescer for so when configured.
func (s *Server) startCoalescer(so *oracle.StatusOracle) {
	if s.CoalesceMaxBatch <= 0 {
		return
	}
	s.coal.Store(newCoalescer(so, s.CoalesceMaxBatch))
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
}

// isDataOp reports whether op is a data-plane operation the admission gate
// applies to; control-plane ops (health, stats, routing, range
// migration) bypass admission so operability survives overload.
func isDataOp(op byte) bool {
	switch op {
	case opBegin, opAbort, opForget, opCommitBatch, opQueryBatch,
		opPrepareBatch, opDecideBatch, opBeginBlock:
		return true
	}
	return false
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer s.dropConn(conn)
	w := newConnWriter(conn, s.MaxPendingBytes, s.WriteStallTimeout, &s.wire)
	// Frames are read through one buffered reader, so one read syscall
	// drains every frame the kernel already holds. Read deadlines still
	// work: they apply to the connection underneath.
	br := bufio.NewReaderSize(countingReader{conn, &s.wire.readSyscalls}, connReadBuf)
	frames := int64(0) // read since the buffer last ran dry; folded into s.wire when it does again
	var handlers sync.WaitGroup
	defer handlers.Wait()
	// sessions tracks the distinct multiplexed session ids this transport
	// carries (lazily allocated — bare-frame connections never pay for it);
	// the server-wide gauge is released when the connection drops.
	var sessions map[uint32]struct{}
	defer func() {
		if n := len(sessions); n > 0 {
			s.sessions.Add(-int64(n))
		}
	}()
	maxSessions := 0
	if s.Ingress != nil {
		maxSessions = s.Ingress.MaxSessions
	}
	for {
		ctx := s.getCtx()
		if s.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.IdleTimeout))
		}
		body, err := readFrameInto(br, ctx.body)
		if err == nil {
			frames++
		}
		if err != nil || br.Buffered() == 0 {
			s.wire.framesRead.Add(frames)
			frames = 0
		}
		if err != nil {
			s.putCtx(ctx)
			return // connection closed, idle-expired or broken
		}
		ctx.body = body[:len(body):cap(body)]
		// The span's receive stamp anchors the whole lifecycle trace; with
		// tracing disabled the span is still reset (its tenant/session
		// fields route per-tenant counters) but no clock is read.
		if s.traceOn.Load() {
			ctx.span.Begin()
		} else {
			ctx.span.Reset()
		}
		reqID, op, payload, err := splitRequest(body)
		if err != nil {
			s.putCtx(ctx)
			s.logf("netsrv: bad request from %s: %v", conn.RemoteAddr(), err)
			return
		}
		// Unwrap the ingress envelope: tenant + session + deadline, then
		// the inner op. The deadline budget is anchored to this server's
		// clock here, at frame receipt.
		var deadline time.Time
		tenant := 0
		if op == opEnvelope {
			env, innerOp, innerPayload, perr := parseEnvelope(payload)
			if perr != nil {
				s.putCtx(ctx)
				s.logf("netsrv: bad envelope from %s: %v", conn.RemoteAddr(), perr)
				return
			}
			if s.adm != nil {
				tenant = s.adm.clampTenant(env.tenant)
			}
			ctx.span.Tenant = uint16(tenant)
			ctx.span.Session = env.session
			if _, ok := sessions[env.session]; !ok {
				if maxSessions > 0 && s.sessions.Load() >= int64(maxSessions) {
					resp := append(appendRespHdr(ctx.resp[:0], reqID, codeOverload), shedSessions)
					if s.adm != nil {
						s.adm.tenants[tenant].shed.Add(1)
					}
					s.sendAndRecycle(w, conn, ctx, resp)
					continue
				}
				if sessions == nil {
					sessions = make(map[uint32]struct{}, 8)
				}
				sessions[env.session] = struct{}{}
				s.sessions.Add(1)
			}
			op, payload = innerOp, innerPayload
			if env.deadline > 0 {
				deadline = time.Now().Add(time.Duration(env.deadline) * time.Microsecond)
			}
		}
		ctx.op = op
		// The admission decision happens here, at the frame boundary, on
		// the connection's read goroutine: shedding costs one counter bump
		// and a 10-byte reply — no handler goroutine, no oracle work, no
		// allocation (the reply is built into the pooled context).
		mustWait := false
		gated := s.adm != nil && isDataOp(op)
		ctx.span.Gated = gated
		if gated {
			switch s.adm.tryAdmit(tenant, deadline) {
			case admitOK:
			case admitWait:
				mustWait = true
			case admitExpired:
				s.sendAndRecycle(w, conn, ctx, appendRespHdr(ctx.resp[:0], reqID, codeExpired))
				continue
			case admitRated:
				s.sendAndRecycle(w, conn, ctx, append(appendRespHdr(ctx.resp[:0], reqID, codeOverload), shedRateLimited))
				continue
			default: // admitShed
				s.sendAndRecycle(w, conn, ctx, append(appendRespHdr(ctx.resp[:0], reqID, codeOverload), shedQueueFull))
				continue
			}
		}
		handlers.Add(1)
		go func(tenant int, deadline time.Time, mustWait, gated bool) {
			defer handlers.Done()
			if gated {
				if mustWait {
					switch s.adm.wait(tenant, deadline) {
					case admitOK:
					case admitExpired:
						s.sendAndRecycle(w, conn, ctx, appendRespHdr(ctx.resp[:0], reqID, codeExpired))
						return
					default: // closed while parked
						s.sendAndRecycle(w, conn, ctx, append(appendRespHdr(ctx.resp[:0], reqID, codeOverload), shedQueueFull))
						return
					}
					if s.traceOn.Load() {
						// Only requests that actually parked pay a clock
						// read here: the delta back to the receive stamp is
						// the admission wait. Fast-path admits leave the
						// stamp zero, which recordSpan treats as no wait.
						ctx.span.Stamp(metrics.StageAdmit)
					}
				}
				defer s.adm.release()
			}
			resp := s.handle(ctx, reqID, op, payload, deadline)
			if s.traceOn.Load() && ctx.span.At(metrics.StageApply) == 0 {
				// Ops whose oracle path does not stamp (control plane,
				// direct queries, errors): handler completion is the apply.
				ctx.span.Stamp(metrics.StageApply)
			}
			s.sendAndRecycle(w, conn, ctx, resp)
		}(tenant, deadline, mustWait, gated)
	}
}

// sendAndRecycle hands one response to the connection writer and returns the
// handler context to the pool (send copies resp into the connection's
// pending buffer, so the context and any decode scratch the response
// aliases are free for the next frame).
func (s *Server) sendAndRecycle(w *connWriter, conn net.Conn, ctx *handlerCtx, resp []byte) {
	if err := w.send(resp, nil); err != nil {
		s.logf("netsrv: write to %s: %v", conn.RemoteAddr(), err)
	}
	if s.traceOn.Load() {
		ctx.span.Stamp(metrics.StageFlush)
		s.recordSpan(&ctx.span, ctx.op)
	}
	ctx.resp = resp[:0:cap(resp)]
	s.putCtx(ctx)
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// handle dispatches one request and returns the response body, built into
// ctx.resp (error responses allocate; they are off the steady-state path).
// deadline, when non-zero, is the request's absolute expiry: work that has
// already expired is answered codeExpired without touching the oracle, and
// the coalesced paths carry it into the batcher so a request that expires
// while parked is dropped at batch-cut time.
func (s *Server) handle(ctx *handlerCtx, reqID uint64, op byte, payload []byte, deadline time.Time) []byte {
	so := s.oracle()
	ok := appendRespHdr(ctx.resp[:0], reqID, codeOK)
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		if s.adm != nil {
			s.adm.tenants[ctx.span.Tenant].expired.Add(1)
		}
		return appendRespHdr(ctx.resp[:0], reqID, codeExpired)
	}
	switch op {
	case opHealth:
		role := roleStandby
		if so != nil {
			role = rolePrimary
		}
		return append(ok, role)
	case opMetrics:
		// Served even in standby role: the registry's netsrv samples (and
		// the dynamic oracle source, once installed) are always gatherable.
		return metrics.AppendSamples(ok, s.Registry().Gather())
	}
	if so == nil {
		// A group member that is not leading still answers status reads
		// from its standby shadow (stale-bounded availability through
		// elections); everything else is redirected to the leader.
		if s.StandbyReads != nil && op == opQueryBatch {
			startTSs, err := decodeQueryBatchReqInto(ctx.tss, payload)
			if err != nil {
				return respError(reqID, err)
			}
			ctx.tss = startTSs
			if sts, served := s.StandbyReads(startTSs, ctx.sts); served {
				ctx.sts = sts
				return appendQueryBatchResp(ok, sts)
			}
		}
		return s.respNotLeader(reqID, ErrStandby)
	}
	switch op {
	case opBegin:
		ts, err := so.Begin()
		if err != nil {
			return s.respDataErr(ctx, reqID, err)
		}
		return appendU64(ok, ts)
	case opCommitBatch:
		reqs, err := decodeCommitBatchReqInto(ctx.reqs, payload)
		if err != nil {
			return respError(reqID, err)
		}
		ctx.reqs = reqs
		for i := range reqs {
			// Assigned unconditionally: the decode scratch is pooled, so a
			// stale span pointer from a previous request must never survive.
			reqs[i].Span = nil
			if s.traceOn.Load() {
				reqs[i].Span = &ctx.span
			}
		}
		// A one-request frame is a client's single commit: with a
		// coalescer it joins the concurrent ones in the next oracle batch.
		// A frame of several is a batch already and is decided as sent.
		results := ctx.results
		if c := s.coal.Load(); c != nil && len(reqs) == 1 {
			var res oracle.CommitResult
			res, err = c.submit(reqs[0], deadline)
			results = append(results[:0], res)
		} else {
			results, err = so.CommitBatchInto(reqs, results)
		}
		if err != nil {
			return s.respDataErr(ctx, reqID, err)
		}
		ctx.results = results
		for i := range reqs {
			s.tapCommit(&reqs[i], results[i])
		}
		return appendCommitBatchResp(ok, results)
	case opAbort:
		ts, err := parseU64(payload)
		if err != nil {
			return respError(reqID, err)
		}
		if err := so.Abort(ts); err != nil {
			return s.respDataErr(ctx, reqID, err)
		}
		return ok
	case opQueryBatch:
		startTSs, err := decodeQueryBatchReqInto(ctx.tss, payload)
		if err != nil {
			return respError(reqID, err)
		}
		ctx.tss = startTSs
		sts := so.QueryBatchInto(startTSs, ctx.sts)
		ctx.sts = sts
		return appendQueryBatchResp(ok, sts)
	case opPrepareBatch:
		reqs, err := decodePrepareBatchReq(payload)
		if err != nil {
			return respError(reqID, err)
		}
		if !s.owns(reqs) {
			return appendRespHdr(ctx.resp[:0], reqID, codeMisrouted)
		}
		votes, err := so.PrepareBatch(reqs)
		if err != nil {
			return respError(reqID, err)
		}
		return appendVotesResp(ok, votes)
	case opDecideBatch:
		ds, err := decodeDecideBatchReq(payload)
		if err != nil {
			return respError(reqID, err)
		}
		if err := so.DecideBatch(ds); err != nil {
			return respError(reqID, err)
		}
		return ok
	case opBeginBlock:
		n, err := parseU64(payload)
		if err != nil {
			return respError(reqID, err)
		}
		if n == 0 || n > 1<<20 {
			return respError(reqID, ErrBadFrame)
		}
		lo, err := so.BeginBlock(int(n))
		if err != nil {
			return s.respDataErr(ctx, reqID, err)
		}
		return appendU64(ok, lo)
	case opForget:
		ts, err := parseU64(payload)
		if err != nil {
			return respError(reqID, err)
		}
		so.Forget(ts)
		return ok
	default:
		return respError(reqID, errors.New("unknown operation"))
	}
}

// respDataErr renders a data-path oracle error: a request the batcher
// dropped at batch-cut time because its deadline passed answers codeExpired
// (built into the pooled context — expiry under overload is a steady-state
// path, so it must not allocate); an append that failed the epoch fence —
// this member was deposed while the request was in flight — answers
// codeNotLeader so the client follows the new leader; anything else is a
// plain error reply.
func (s *Server) respDataErr(ctx *handlerCtx, reqID uint64, err error) []byte {
	if errors.Is(err, oracle.ErrExpired) {
		if s.adm != nil {
			s.adm.tenants[ctx.span.Tenant].expired.Add(1)
		}
		return appendRespHdr(ctx.resp[:0], reqID, codeExpired)
	}
	if errors.Is(err, wal.ErrFenced) {
		return s.respNotLeader(reqID, err)
	}
	return respError(reqID, err)
}

// respNotLeader renders a request this member cannot serve because it is
// not the group's leader. With a LeaderHint configured (and a known
// leader), the reply carries the redirect payload; otherwise the fallback
// error is sent plainly, preserving the pre-group standby behavior.
func (s *Server) respNotLeader(reqID uint64, fallback error) []byte {
	if s.LeaderHint != nil {
		if epoch, addr := s.LeaderHint(); addr != "" {
			body := appendRespHdr(make([]byte, 0, 9+8+len(addr)), reqID, codeNotLeader)
			return appendLeaderHint(body, epoch, addr)
		}
	}
	return respError(reqID, fallback)
}

// owns reports whether every row of the prepare slices belongs to this
// partition under its router. The check runs before the oracle touches any
// state, so a refused slice parks nothing. Without a router the server owns
// every row.
func (s *Server) owns(reqs []oracle.PrepareRequest) bool {
	if s.Router == nil {
		return true
	}
	for i := range reqs {
		for _, set := range [2][]oracle.RowID{reqs[i].WriteSet, reqs[i].ReadSet} {
			for _, r := range set {
				if s.Router.Partition(r) != s.PartitionID {
					return false
				}
			}
		}
	}
	return true
}
