package netsrv

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/oracle"
)

// Mux multiplexes many logical client sessions over a small fixed pool of
// transport connections. A million clients do not get a million TCP
// connections: each Session carries its own id (and tenant, and deadline
// budget) in the ingress envelope of every frame, and the underlying
// transports pipeline all sessions' requests concurrently — the existing
// reqID matching already keeps responses straight, so a session is pure
// protocol state with no goroutine, no socket and no buffer of its own.
type Mux struct {
	clients []*Client
	nextSID atomic.Uint32
}

// DialMux opens a pool of conns transport connections to addr (conns
// defaults to 1 if not positive).
func DialMux(addr string, conns int) (*Mux, error) {
	if conns <= 0 {
		conns = 1
	}
	m := &Mux{clients: make([]*Client, 0, conns)}
	for i := 0; i < conns; i++ {
		c, err := Dial(addr)
		if err != nil {
			m.Close()
			return nil, err
		}
		m.clients = append(m.clients, c)
	}
	return m, nil
}

// Close tears down the transport pool; every session on it fails.
func (m *Mux) Close() error {
	var err error
	for _, c := range m.clients {
		if cerr := c.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Session opens one logical session for tenant: a lightweight handle whose
// requests travel enveloped with the session id and the tenant's admission
// class, pinned to one pooled transport (round-robin by session id).
// Sessions need no close handshake — the server's session gauge drops when
// the carrying transport disconnects.
func (m *Mux) Session(tenant byte) *Session {
	sid := m.nextSID.Add(1)
	return &Session{
		c:   m.clients[int(sid)%len(m.clients)],
		env: envelope{tenant: tenant, session: sid},
	}
}

// Session is one multiplexed logical client session. It is a thin stateless
// proxy — safe for concurrent use after SetDeadline is done being called —
// whose every request carries the ingress envelope. Errors surface the
// admission verdicts as typed values: errors.Is(err, ErrOverload) for any
// shed, ErrRateLimited / ErrSessionLimit for the specific reasons, and
// ErrDeadlineExceeded when the request expired anywhere along the path
// (admission, admission queue, coalescer batch cut, or post-decision).
type Session struct {
	c   *Client
	env envelope
}

// maxDeadlineMicros is the largest per-request budget the u32 envelope
// field can carry (~71.6 minutes).
const maxDeadlineMicros = int64(^uint32(0))

// ErrDeadlineTooLong reports a per-request budget beyond what the envelope
// can encode.
var ErrDeadlineTooLong = errors.New("netsrv: session deadline exceeds envelope range")

// SetDeadline installs the per-request deadline budget every subsequent
// request carries (0 disables). The budget is relative — the server anchors
// it to its own clock at frame receipt — so client and server clocks need
// not be synchronized.
func (s *Session) SetDeadline(d time.Duration) error {
	if d <= 0 {
		s.env.deadline = 0
		return nil
	}
	us := d.Microseconds()
	if us <= 0 {
		us = 1 // sub-microsecond budgets round up, not down to "none"
	}
	if us > maxDeadlineMicros {
		return ErrDeadlineTooLong
	}
	s.env.deadline = uint32(us)
	return nil
}

// ID returns the session id the envelope carries.
func (s *Session) ID() uint32 { return s.env.session }

// Begin requests a start timestamp.
func (s *Session) Begin() (uint64, error) {
	resp, err := s.c.callRespEnv(opBegin, nil, &s.env)
	if err != nil {
		return 0, err
	}
	ts, err := parseU64(resp.payload)
	putRespBuf(resp)
	return ts, err
}

// Commit submits a commit request through the session's admission class.
func (s *Session) Commit(req oracle.CommitRequest) (oracle.CommitResult, error) {
	return s.c.commitOne(req, &s.env)
}

// Abort records an explicit abort.
func (s *Session) Abort(startTS uint64) error {
	resp, err := s.c.callRespEnv(opAbort, u64(startTS), &s.env)
	if err != nil {
		return err
	}
	putRespBuf(resp)
	return nil
}

// Query asks for a transaction's status. Unlike Client.Query (whose Arbiter
// shape has no error path), a session query surfaces shed and expiry
// verdicts to the caller.
func (s *Session) Query(startTS uint64) (oracle.TxnStatus, error) {
	return s.c.queryOne(startTS, &s.env)
}

// Forget drops an aborted transaction's record after cleanup.
func (s *Session) Forget(startTS uint64) error {
	resp, err := s.c.callRespEnv(opForget, u64(startTS), &s.env)
	if err != nil {
		return err
	}
	putRespBuf(resp)
	return nil
}
