package ha

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// This file builds a self-healing N-node group from the Standby and its
// fenced Promote. Each epoch of leadership owns one replica ledger set;
// the leader renews an epoch-numbered lease through the quorum append
// path (lease.go), followers tail the epoch's log and run a failure
// detector over observed progress, and on lease expiry the
// best-caught-up follower campaigns: it seals the old epoch's ledgers at
// epoch+1 (wal.SealEpoch — each ledger grants an epoch once, so dueling
// candidates are serialized by the quorum seal) and promotes its shadow
// via the fenced Promote path. The deposed leader's next append fails
// ErrFenced and it steps down to follower. Split-brain is structurally
// impossible: two leaders would need two seal quorums at one epoch.

// LedgerStore resolves leadership epochs to replica ledger sets. It is
// the group's shared metadata plane — an in-process map for tests and
// benchmarks (MemStore) or a shared directory for multi-process
// deployments (DirStore), standing in for the ZooKeeper/BookKeeper
// metadata service of the paper's deployment.
type LedgerStore interface {
	// MaxEpoch returns the highest epoch with a ledger set (0 = none).
	MaxEpoch() (uint64, error)
	// Read returns the designated read replica of epoch's ledger set,
	// which followers tail. An epoch with no ledger set fails with an
	// error wrapping fs.ErrNotExist; any other error may be transient.
	Read(epoch uint64) (wal.Ledger, error)
	// Fence returns seal handles for epoch's full replica set; an
	// election candidate seals these.
	Fence(epoch uint64) ([]wal.Ledger, error)
	// Create creates epoch's replica set and returns append handles. Only
	// the election winner calls it, after the fence quorum is won.
	Create(epoch uint64) ([]wal.Ledger, error)
}

// MemStore is an in-process LedgerStore over MemLedger replica sets.
type MemStore struct {
	mu       sync.Mutex
	replicas int
	epochs   map[uint64][]*wal.MemLedger
	max      uint64
}

// NewMemStore returns a MemStore creating the given number of replicas
// per epoch (minimum 1).
func NewMemStore(replicas int) *MemStore {
	if replicas < 1 {
		replicas = 1
	}
	return &MemStore{replicas: replicas, epochs: make(map[uint64][]*wal.MemLedger)}
}

// MaxEpoch returns the highest created epoch.
func (s *MemStore) MaxEpoch() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max, nil
}

// Read returns the first replica of the epoch's set.
func (s *MemStore) Read(epoch uint64) (wal.Ledger, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.epochs[epoch]
	if !ok {
		return nil, fmt.Errorf("ha: no ledger set for epoch %d: %w", epoch, fs.ErrNotExist)
	}
	return set[0], nil
}

// Fence returns the epoch's full replica set (same objects the leader's
// writer appends to, so sealing them fences it).
func (s *MemStore) Fence(epoch uint64) ([]wal.Ledger, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	set, ok := s.epochs[epoch]
	if !ok {
		return nil, fmt.Errorf("ha: no ledger set for epoch %d", epoch)
	}
	out := make([]wal.Ledger, len(set))
	for i, l := range set {
		out[i] = l
	}
	return out, nil
}

// Create creates the epoch's replica set; creating an epoch twice is an
// error (only one candidate can win an epoch's fence quorum).
func (s *MemStore) Create(epoch uint64) ([]wal.Ledger, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.epochs[epoch]; ok {
		return nil, fmt.Errorf("ha: epoch %d ledger set already exists", epoch)
	}
	set := make([]*wal.MemLedger, s.replicas)
	out := make([]wal.Ledger, s.replicas)
	for i := range set {
		set[i] = wal.NewMemLedger()
		out[i] = set[i]
	}
	s.epochs[epoch] = set
	if epoch > s.max {
		s.max = epoch
	}
	return out, nil
}

// DirStore is a LedgerStore over a shared directory: epoch E's ledger is
// the single file epoch-<E>.wal (one replica — the directory is the
// "bookie"; its durability comes from the underlying filesystem). The
// FileLedger flock-based seal makes fencing atomic across processes, so
// several oracle-server processes pointed at the same directory form a
// group.
type DirStore struct {
	Dir string
	// Sync fsyncs every appended batch (real durability, real latency).
	Sync bool
}

func (s *DirStore) path(epoch uint64) string {
	return filepath.Join(s.Dir, fmt.Sprintf("epoch-%06d.wal", epoch))
}

// MaxEpoch scans the directory for the highest epoch-<E>.wal.
func (s *DirStore) MaxEpoch() (uint64, error) {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return 0, err
	}
	var max uint64
	for _, e := range entries {
		var epoch uint64
		if _, err := fmt.Sscanf(e.Name(), "epoch-%d.wal", &epoch); err == nil && epoch > max {
			max = epoch
		}
	}
	return max, nil
}

// Read opens the epoch file read-only; the reader supports Refresh, so a
// Tailer over it follows the leader's appends live.
func (s *DirStore) Read(epoch uint64) (wal.Ledger, error) {
	return wal.OpenFileLedgerReader(s.path(epoch))
}

// Fence opens a read-write handle whose SealEpoch durably fences the
// file against every process appending to it.
func (s *DirStore) Fence(epoch uint64) ([]wal.Ledger, error) {
	l, err := wal.OpenFileLedger(s.path(epoch), s.Sync)
	if err != nil {
		return nil, err
	}
	return []wal.Ledger{l}, nil
}

// Create creates the epoch file; failing if it already exists.
func (s *DirStore) Create(epoch uint64) ([]wal.Ledger, error) {
	path := s.path(epoch)
	if _, err := os.Stat(path); err == nil {
		return nil, fmt.Errorf("ha: %s already exists", path)
	}
	l, err := wal.OpenFileLedger(path, s.Sync)
	if err != nil {
		return nil, err
	}
	return []wal.Ledger{l}, nil
}

// closeLedger releases a read handle nothing tails any more. A DirStore
// reader holds a file; MemStore hands out the leader's own ledger, which
// has no Close and stays open.
func closeLedger(l wal.Ledger) {
	if c, ok := l.(io.Closer); ok {
		_ = c.Close()
	}
}

// Role is a group member's current role.
type Role int32

// Member roles. A member is a follower between elections; RoleIdle is the
// pre-bootstrap state before any epoch exists.
const (
	RoleIdle Role = iota
	RoleFollower
	RoleLeader
)

func (r Role) String() string {
	switch r {
	case RoleLeader:
		return "leader"
	case RoleFollower:
		return "follower"
	default:
		return "idle"
	}
}

// MemberConfig parameterizes one group member.
type MemberConfig struct {
	// ID is the member's index in the group (staggers election timing).
	ID int
	// Addr is the address advertised in lease records — where clients
	// reach this member when it leads.
	Addr string
	// Store is the group's shared ledger store.
	Store LedgerStore
	// Oracle carries the conflict-detection parameters every member must
	// share; its WAL/TSO fields are ignored.
	Oracle oracle.Config
	// WAL is the batching/replication policy for the epoch the member
	// leads.
	WAL wal.Config
	// Lease is the leadership lease duration: the leader renews every
	// Lease/3 through the quorum append path, and a follower that
	// observes no new log records for Lease (plus its election stagger)
	// campaigns. Default 1s.
	Lease time.Duration
	// Poll is the follower tail / leader renewal check interval.
	// Default Lease/8.
	Poll time.Duration
	// SealQuorum is how many fence seals a candidate must newly win
	// (0 = majority of the replica set). It must also be at least
	// N-Quorum+1 for the group's write quorum, so a fenced leader can
	// never again assemble an append quorum.
	SealQuorum int
	// TSOBatch is the timestamp reservation block size after promotion.
	TSOBatch int
	// Bootstrap lets this member create epoch 1 and lead when the store
	// is empty at Start.
	Bootstrap bool
	// CheckpointEvery, when > 0, runs a Checkpointer while leading so a
	// long-lived epoch's log stays cheap to join.
	CheckpointEvery time.Duration
	// OnLead is called (from the member's run loop) with the serving
	// oracle after this member wins an election or bootstraps.
	OnLead func(so *oracle.StatusOracle, epoch uint64)
	// OnFollow is called when the member becomes (or resumes being) a
	// follower of epoch's log.
	OnFollow func(epoch uint64)
	// Logf, when non-nil, receives role-transition diagnostics.
	Logf func(format string, args ...any)
}

// Member is one node of the self-healing oracle group: a leader serving
// commits, or a follower tailing the leader's log, detecting its failure,
// and standing for election. All role transitions happen on the member's
// own run loop; accessors are safe from any goroutine.
type Member struct {
	cfg    MemberConfig
	poll   time.Duration
	stop   chan struct{}
	done   chan struct{}
	closed bool

	mu        sync.Mutex
	role      Role
	epoch     uint64
	sb        *Standby // follower state
	so        *oracle.StatusOracle
	writer    *wal.Writer
	ckpt      *Checkpointer
	leaseSeq  uint64
	lastRenew time.Time
	lastSeen  int64     // sb.Observed() at the last progress check
	lastAlive time.Time // when progress (or epoch entry) was last seen
	nextEpoch uint64    // floor for the next campaign's proposal

	elections atomic.Int64
	expiries  atomic.Int64
}

// NewMember builds a member; call Start to join the group.
func NewMember(cfg MemberConfig) *Member {
	if cfg.Lease <= 0 {
		cfg.Lease = time.Second
	}
	if cfg.Poll <= 0 {
		cfg.Poll = cfg.Lease / 8
	}
	if cfg.Poll <= 0 {
		cfg.Poll = time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Member{
		cfg:  cfg,
		poll: cfg.Poll,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// Start joins the group: bootstrap epoch 1 (when configured and the store
// is empty), else follow the newest epoch, then run the detector loop.
func (m *Member) Start() error {
	max, err := m.cfg.Store.MaxEpoch()
	if err != nil {
		return err
	}
	if max == 0 && m.cfg.Bootstrap {
		if err := m.lead(1); err != nil {
			return fmt.Errorf("ha: bootstrap: %w", err)
		}
	} else if max > 0 {
		if err := m.follow(max); err != nil {
			return err
		}
	} else {
		m.mu.Lock()
		m.lastAlive = time.Now()
		m.mu.Unlock()
	}
	go m.run()
	return nil
}

// Stop halts the member's loops without any graceful handover — from the
// group's perspective a stopped leader has crashed, and the group heals
// around it. Safe to call twice.
func (m *Member) Stop() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		<-m.done
		return
	}
	m.closed = true
	ckpt := m.ckpt
	m.ckpt = nil
	m.mu.Unlock()
	if ckpt != nil {
		ckpt.Stop()
	}
	close(m.stop)
	<-m.done
}

func (m *Member) run() {
	defer close(m.done)
	t := time.NewTicker(m.poll)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		}
		m.mu.Lock()
		role := m.role
		m.mu.Unlock()
		switch role {
		case RoleLeader:
			m.leaderTick()
		default:
			m.followerTick()
		}
	}
}

// renewEvery is the lease renewal period: three renewal chances per lease.
func (m *Member) renewEvery() time.Duration { return m.cfg.Lease / 3 }

// electionTimeout is how long a follower waits without log progress
// before campaigning: the lease plus a stagger that sends the
// best-caught-up follower first (each pending record and each ID step
// delays the candidacy by a fraction of the poll interval). The stagger
// only reduces duels; correctness rests on the seal quorum.
func (m *Member) electionTimeout(lag int) time.Duration {
	if lag > 64 {
		lag = 64
	}
	id := m.cfg.ID % 8
	return m.cfg.Lease + time.Duration(lag)*m.poll/4 + time.Duration(id)*m.poll/2
}

func (m *Member) leaderTick() {
	m.mu.Lock()
	w, so, epoch := m.writer, m.so, m.epoch
	due := time.Since(m.lastRenew) >= m.renewEvery()
	var seq uint64
	if due {
		m.leaseSeq++
		seq = m.leaseSeq
	}
	m.mu.Unlock()

	if due {
		err := w.Append(EncodeLeaseRecord(epoch, seq, m.cfg.Addr))
		if err == nil {
			m.mu.Lock()
			m.lastRenew = time.Now()
			m.mu.Unlock()
		} else if errors.Is(err, wal.ErrFenced) || errors.Is(err, wal.ErrClosed) {
			m.cfg.Logf("ha: member %d deposed at epoch %d: %v", m.cfg.ID, epoch, err)
			m.stepDown(epoch)
			return
		}
		// A transient quorum failure is retried next tick; if it
		// persists, followers see the lease expire and elect.
	}
	if err := so.Err(); err != nil && errors.Is(err, wal.ErrFenced) {
		m.cfg.Logf("ha: member %d oracle fenced at epoch %d: %v", m.cfg.ID, epoch, err)
		m.stepDown(epoch)
	}
}

func (m *Member) followerTick() {
	m.mu.Lock()
	epoch, sb := m.epoch, m.sb
	m.mu.Unlock()

	max, err := m.cfg.Store.MaxEpoch()
	if err == nil && (max > epoch || (sb == nil && max > 0)) {
		if err := m.follow(max); err == nil {
			return
		}
		// The winner may still be creating the new epoch's ledger;
		// retry next tick.
	}
	if sb == nil {
		m.mu.Lock()
		m.lastAlive = time.Now()
		m.mu.Unlock()
		return
	}
	if _, err := sb.CatchUp(); err != nil {
		m.cfg.Logf("ha: member %d tail epoch %d: %v", m.cfg.ID, epoch, err)
		return
	}
	obs := sb.Observed()
	m.mu.Lock()
	if obs > m.lastSeen {
		m.lastSeen = obs
		m.lastAlive = time.Now()
		m.mu.Unlock()
		return
	}
	idle := time.Since(m.lastAlive)
	m.mu.Unlock()

	lag, _ := sb.Lag()
	if idle < m.electionTimeout(lag) {
		return
	}
	m.expiries.Add(1)
	m.campaign(epoch)
}

// campaign stands for election: seal the expired epoch's ledgers at
// epoch+1 and promote through the fenced path. Losing is normal — the
// member re-follows the winner's log.
func (m *Member) campaign(from uint64) {
	propose := from + 1
	m.mu.Lock()
	if m.nextEpoch > propose {
		propose = m.nextEpoch
	}
	sb := m.sb
	m.mu.Unlock()

	m.elections.Add(1)
	m.cfg.Logf("ha: member %d campaigning for epoch %d", m.cfg.ID, propose)
	fence, err := m.cfg.Store.Fence(from)
	if err != nil {
		m.cfg.Logf("ha: member %d fence handles epoch %d: %v", m.cfg.ID, from, err)
		return
	}
	quorum := m.cfg.SealQuorum
	if quorum <= 0 {
		quorum = len(fence)/2 + 1
	}
	var writer *wal.Writer
	so, err := sb.Promote(PromoteConfig{
		Fence:      fence,
		MinSeals:   quorum,
		FenceEpoch: propose,
		TSOBatch:   m.cfg.TSOBatch,
		NewWAL: func() (*wal.Writer, error) {
			ledgers, err := m.cfg.Store.Create(propose)
			if err != nil {
				return nil, err
			}
			writer, err = wal.NewWriter(m.cfg.WAL, ledgers...)
			return writer, err
		},
	})
	now := time.Now()
	switch {
	case err == nil:
		m.cfg.Logf("ha: member %d won epoch %d", m.cfg.ID, propose)
		m.installLeader(propose, so, writer)
	case errors.Is(err, ErrElectionLost):
		// A rival holds (part of) the epoch's seal quorum. The standby
		// is untouched (the fence phase fails before the drain), so keep
		// tailing; the winner's epoch surfaces via MaxEpoch next tick.
		// Reset the liveness clock so the loser does not re-campaign
		// before then.
		m.cfg.Logf("ha: member %d lost election for epoch %d", m.cfg.ID, propose)
		m.mu.Lock()
		m.lastAlive = now
		m.mu.Unlock()
	default:
		// Won the seals but promotion failed (e.g. the store refused the
		// create): the epoch is burned — propose strictly higher next
		// time so the upgrade path (SealEpoch accepts higher epochs) can
		// make progress. The shadow may be half promoted and latched on
		// the fence, so the member rebuilds it from the log.
		m.cfg.Logf("ha: member %d promotion for epoch %d failed: %v", m.cfg.ID, propose, err)
		m.mu.Lock()
		m.nextEpoch = propose + 1
		m.lastAlive = now
		m.sb = nil
		m.mu.Unlock()
		closeLedger(sb.read)
		if err := m.follow(from); err != nil {
			m.cfg.Logf("ha: member %d refollow epoch %d: %v", m.cfg.ID, from, err)
		}
	}
}

// lead bootstraps leadership of a fresh epoch (no predecessor to fence).
func (m *Member) lead(epoch uint64) error {
	ledgers, err := m.cfg.Store.Create(epoch)
	if err != nil {
		return err
	}
	w, err := wal.NewWriter(m.cfg.WAL, ledgers...)
	if err != nil {
		return err
	}
	cfg := m.cfg.Oracle
	cfg.WAL = w
	batch := m.cfg.TSOBatch
	if batch <= 0 {
		batch = 500
	}
	cfg.TSO = tso.New(batch, w)
	so, err := oracle.New(cfg)
	if err != nil {
		return err
	}
	m.installLeader(epoch, so, w)
	return nil
}

// installLeader swaps the member into the leader role and appends the
// epoch's first lease record.
func (m *Member) installLeader(epoch uint64, so *oracle.StatusOracle, w *wal.Writer) {
	m.mu.Lock()
	m.role = RoleLeader
	m.epoch = epoch
	m.so = so
	m.writer = w
	m.sb = nil
	m.leaseSeq = 1
	m.lastRenew = time.Now()
	var ckpt *Checkpointer
	if m.cfg.CheckpointEvery > 0 {
		ckpt = StartCheckpointer(so, m.cfg.CheckpointEvery)
	}
	m.ckpt = ckpt
	m.mu.Unlock()
	// First renewal proves the new epoch's append path end to end.
	if err := w.Append(EncodeLeaseRecord(epoch, 1, m.cfg.Addr)); err != nil {
		m.cfg.Logf("ha: member %d first lease append epoch %d: %v", m.cfg.ID, epoch, err)
	}
	if m.cfg.OnLead != nil {
		m.cfg.OnLead(so, epoch)
	}
}

// stepDown demotes a fenced leader back to follower of the successor's
// log (or its own sealed epoch until the successor's shows up).
func (m *Member) stepDown(epoch uint64) {
	m.mu.Lock()
	ckpt := m.ckpt
	m.ckpt = nil
	m.mu.Unlock()
	if ckpt != nil {
		ckpt.Stop()
	}
	max, err := m.cfg.Store.MaxEpoch()
	if err != nil || max < epoch {
		max = epoch
	}
	if err := m.follow(max); err != nil {
		m.cfg.Logf("ha: member %d step-down follow epoch %d: %v", m.cfg.ID, max, err)
		m.mu.Lock()
		m.role = RoleFollower
		m.sb = nil
		m.so = nil
		m.writer = nil
		m.lastAlive = time.Now()
		m.mu.Unlock()
	}
}

// follow makes the member a follower of epoch's log. A promoted epoch's
// log opens with its winner's full checkpoint, but a winner that died or
// was fenced before writing it leaves the log empty, and a shadow built
// from that log alone would campaign without the history before it. So
// the shadow is carried across epochs: a follower drains each older
// (sealed) epoch to its end before tailing the next, and a member without
// a shadow starts from the newest epoch whose log is not empty. A failed
// step is retried on a later tick; tailing a promoted epoch's log again
// from its start is harmless, because its checkpoint resets the shadow.
func (m *Member) follow(epoch uint64) error {
	m.mu.Lock()
	sb, at := m.sb, m.epoch
	m.mu.Unlock()
	fresh := sb == nil
	if fresh {
		var err error
		if sb, at, err = m.newestShadow(epoch); err != nil {
			return err
		}
	}
	for ; at < epoch; at++ {
		read, err := m.cfg.Store.Read(at + 1)
		if errors.Is(err, fs.ErrNotExist) && at+1 < epoch {
			continue // a burned epoch number: never created, acked nothing
		}
		if err == nil {
			err = sb.advance(read)
		}
		if err != nil {
			if fresh {
				closeLedger(sb.read)
			}
			return err
		}
	}
	m.mu.Lock()
	m.role = RoleFollower
	m.epoch = epoch
	m.sb = sb
	m.so = nil
	m.writer = nil
	m.lastSeen = 0
	m.lastAlive = time.Now()
	m.mu.Unlock()
	if m.cfg.OnFollow != nil {
		m.cfg.OnFollow(epoch)
	}
	return nil
}

// newestShadow builds a standby over the newest epoch at or below epoch
// whose log is not empty: it opens with a full checkpoint (or is the
// bootstrap epoch), so replaying it rebuilds every epoch before it.
func (m *Member) newestShadow(epoch uint64) (*Standby, uint64, error) {
	for e := epoch; e >= 1; e-- {
		read, err := m.cfg.Store.Read(e)
		if errors.Is(err, fs.ErrNotExist) {
			continue // a burned epoch number
		}
		if err != nil {
			return nil, 0, err
		}
		n, err := read.NumBatches()
		if err != nil {
			closeLedger(read)
			return nil, 0, err
		}
		if n == 0 && e > 1 {
			closeLedger(read)
			continue
		}
		sb, err := NewStandby(m.cfg.Oracle, read)
		if err != nil {
			closeLedger(read)
		}
		return sb, e, err
	}
	return nil, 0, fmt.Errorf("ha: no epoch log at or below %d", epoch)
}

// Role returns the member's current role.
func (m *Member) Role() Role {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.role
}

// Epoch returns the epoch the member is serving or following.
func (m *Member) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Oracle returns the serving status oracle when leading, else nil.
func (m *Member) Oracle() *oracle.StatusOracle {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.role != RoleLeader {
		return nil
	}
	return m.so
}

// LeaderHint names the group's current leader as this member knows it:
// its own address when leading, else the address from the newest lease
// record its shadow has observed ("" when unknown). The epoch is the
// newest leadership epoch observed.
func (m *Member) LeaderHint() (epoch uint64, addr string) {
	m.mu.Lock()
	role, e, sb := m.role, m.epoch, m.sb
	m.mu.Unlock()
	if role == RoleLeader {
		return e, m.cfg.Addr
	}
	if sb != nil {
		le, _, laddr := sb.Lease()
		if le >= e && laddr != "" {
			return le, laddr
		}
	}
	return e, ""
}

// QueryBatchInto answers status lookups from whichever state the member
// holds: the serving oracle when leading, else the follower shadow — a
// prefix-consistent stale-bounded read whose staleness is Lag() records.
// ok is false only before the member has any state (pre-bootstrap).
func (m *Member) QueryBatchInto(startTSs []uint64, scratch []oracle.TxnStatus) ([]oracle.TxnStatus, bool) {
	m.mu.Lock()
	so, sb := m.so, m.sb
	m.mu.Unlock()
	if so != nil {
		return so.QueryBatchInto(startTSs, scratch), true
	}
	if sb != nil {
		return sb.QueryBatchInto(startTSs, scratch), true
	}
	return nil, false
}

// Lag reports the follower shadow's staleness bound in records (0 while
// leading).
func (m *Member) Lag() int {
	m.mu.Lock()
	sb := m.sb
	m.mu.Unlock()
	if sb == nil {
		return 0
	}
	lag, _ := sb.Lag()
	return lag
}

// Elections returns how many campaigns this member has started.
func (m *Member) Elections() int64 { return m.elections.Load() }

// MetricsSource exposes the group health gauges: the leadership epoch as
// this member observes it, whether it leads, its read staleness, and how
// many lease expiries and elections it has seen.
func (m *Member) MetricsSource() metrics.Source {
	return func(emit func(metrics.Sample)) {
		m.mu.Lock()
		role, epoch := m.role, m.epoch
		m.mu.Unlock()
		leader := 0.0
		if role == RoleLeader {
			leader = 1
		}
		emit(metrics.G("ha_leader_epoch", float64(epoch)))
		emit(metrics.G("ha_member_is_leader", leader))
		emit(metrics.C("ha_elections_total", m.elections.Load()))
		emit(metrics.C("ha_lease_expiries_total", m.expiries.Load()))
		emit(metrics.G("ha_standby_lag_records", float64(m.Lag())))
	}
}
