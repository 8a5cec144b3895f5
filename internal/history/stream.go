package history

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// This file is the online half of the package: a sampled, zero-allocation
// event tap that hot paths (internal/txn, the netsrv handler) record
// transaction lifecycle events into, and a streaming checker that consumes
// those events over a sliding window of recent committed versions —
// incremental anomaly detection (write skew, lost update, dirty/fuzzy
// read, snapshot-visibility violations) plus invariant watchdogs, instead
// of the offline whole-history MVSG the rest of the package builds.
//
// Fidelity depends on the tap point. The txn-layer tap knows which version
// every read observed, so all detectors apply. The netsrv server tap only
// sees hashed read/write sets at decision time (observations are
// ObsUnknown); the checker then *infers* observations from its version
// window under the snapshot rule and restricts itself to checks that can
// never fabricate an anomaly from missing information — the detectors are
// false-negative-only under sampling, eviction, and set-only taps.

// EventKind tags a StreamEvent.
type EventKind uint8

// Stream event kinds.
const (
	EvBegin EventKind = iota + 1
	EvRead
	EvWrite
	EvCommit
	EvAbort
)

// ObsUnknown marks a read event whose observed version is not known at the
// tap point (set-only taps such as the netsrv handler). The checker infers
// the observation from its version window and skips the checks that would
// need the true value.
const ObsUnknown = ^uint64(0)

// StreamEvent is one fixed-size tapped lifecycle event. Start identifies
// the transaction (its start timestamp). For EvRead, Item is the row and
// Arg is the observed version's writer start timestamp (0 = initial
// version, Start = own write, ObsUnknown = not known at the tap point).
// For EvWrite, Item is the row. For EvCommit, Arg is the commit timestamp.
type StreamEvent struct {
	Kind  EventKind
	Start uint64
	Item  uint64
	Arg   uint64
}

// tapShards is the number of independent ring buffers; a transaction's
// events always land in the shard selected by its start timestamp, so a
// drain preserves per-transaction event order.
const tapShards = 8

// DefaultTapShardCap is the per-shard ring capacity when NewTap is given
// zero.
const DefaultTapShardCap = 4096

type tapShard struct {
	mu   sync.Mutex
	buf  []StreamEvent
	read int // index of oldest event
	n    int // number of buffered events
	_    [24]byte
}

// Tap is the sampled event sink the hot paths record into: per-worker ring
// buffers behind a per-shard mutex, drop-newest on overflow, and an atomic
// sampling threshold so recording for unsampled transactions costs one
// load and a branch. Record never allocates.
type Tap struct {
	threshold atomic.Uint64 // sample iff mix64(start) < threshold
	frac      atomic.Uint64 // math.Float64bits of the configured fraction
	dropped   atomic.Int64
	shards    [tapShards]tapShard
}

// NewTap returns a tap with the given per-shard ring capacity
// (DefaultTapShardCap when <= 0). Sampling starts at 0 (off).
func NewTap(perShardCap int) *Tap {
	if perShardCap <= 0 {
		perShardCap = DefaultTapShardCap
	}
	t := &Tap{}
	for i := range t.shards {
		t.shards[i].buf = make([]StreamEvent, perShardCap)
	}
	return t
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed hash of the
// start timestamp, so the sampling decision is deterministic per
// transaction and agrees across tap points.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SetSampling sets the sampled fraction of transactions in [0, 1]. It is
// safe to flip at runtime; in-flight transactions keep the decision made
// at their begin.
func (t *Tap) SetSampling(frac float64) {
	switch {
	case frac <= 0:
		frac = 0
		t.threshold.Store(0)
	case frac >= 1:
		frac = 1
		t.threshold.Store(^uint64(0))
	default:
		t.threshold.Store(uint64(frac*float64(1<<63)) << 1)
	}
	t.frac.Store(floatBits(frac))
}

// Sampling returns the configured sampled fraction.
func (t *Tap) Sampling() float64 { return floatFromBits(t.frac.Load()) }

// Sampled reports whether the transaction with the given start timestamp
// is in the sample. The decision is a pure function of the timestamp, so
// every tap point agrees without coordination.
func (t *Tap) Sampled(start uint64) bool {
	th := t.threshold.Load()
	if th == 0 {
		return false
	}
	if th == ^uint64(0) {
		return true
	}
	return mix64(start) < th
}

// Record buffers one event; on a full shard the event is dropped and
// counted. Zero allocations.
func (t *Tap) Record(ev StreamEvent) {
	sh := &t.shards[ev.Start&(tapShards-1)]
	sh.mu.Lock()
	if sh.n == len(sh.buf) {
		sh.mu.Unlock()
		t.dropped.Add(1)
		return
	}
	i := sh.read + sh.n
	if i >= len(sh.buf) {
		i -= len(sh.buf)
	}
	sh.buf[i] = ev
	sh.n++
	sh.mu.Unlock()
}

// Drain appends every buffered event to buf and returns it, emptying the
// rings. Per-transaction event order is preserved (a transaction's events
// share a shard).
func (t *Tap) Drain(buf []StreamEvent) []StreamEvent {
	for s := range t.shards {
		sh := &t.shards[s]
		sh.mu.Lock()
		for sh.n > 0 {
			buf = append(buf, sh.buf[sh.read])
			sh.read++
			if sh.read == len(sh.buf) {
				sh.read = 0
			}
			sh.n--
		}
		sh.mu.Unlock()
	}
	return buf
}

// Dropped returns the number of events lost to full rings.
func (t *Tap) Dropped() int64 { return t.dropped.Load() }

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }

// StreamConfig parameterizes a Streaming checker.
type StreamConfig struct {
	// MaxTxns caps the number of transactions retained in the window;
	// oldest decided transactions are evicted past it. Default 1<<16.
	MaxTxns int
	// LowWater, when set, supplies the external eviction key (the
	// oracle's commit-table low-water mark); Run calls EvictBelow with
	// it after each drain.
	LowWater func() uint64
	// Logf, when set, receives one line per detected anomaly or
	// watchdog trip.
	Logf func(format string, args ...interface{})
}

// StreamCounts is a snapshot of the checker's counters.
type StreamCounts struct {
	Events        int64
	Txns          int64
	WriteSkew     int64
	LostUpdate    int64
	DirtyRead     int64
	FuzzyRead     int64
	SnapViolation int64
	NonMonotone   int64
	DoubleDecide  int64
	Evicted       int64
}

// Exemplar is one structured anomaly record kept for exposition.
type Exemplar struct {
	Kind   string
	T1, T2 uint64 // start timestamps of the involved transactions (T2 may be 0)
	Item   uint64
	At     uint64 // commit timestamp (or max seen) when detected
}

func (e Exemplar) String() string {
	if e.T2 != 0 {
		return fmt.Sprintf("%s txns=(%d,%d) item=%d at=%d", e.Kind, e.T1, e.T2, e.Item, e.At)
	}
	return fmt.Sprintf("%s txn=%d item=%d at=%d", e.Kind, e.T1, e.Item, e.At)
}

const maxExemplars = 16

type txnState uint8

const (
	txnLive txnState = iota
	txnCommitted
	txnAborted
)

type streamRead struct {
	item uint64
	obs  uint64 // observed writer start; 0 initial, ObsUnknown, own start
	seq  int
}

type streamTxn struct {
	start   uint64
	commit  uint64
	decided uint64 // eviction key: commit ts, or max seen commit at abort
	state   txnState
	seq     int
	reads   []streamRead
	writes  []uint64       // item ids in write order
	wrote   map[uint64]int // item -> last write seq
	first   map[uint64]uint64
}

type streamVer struct{ commit, writer uint64 }

type itemRead struct {
	reader    uint64
	obsCommit uint64 // resolved observed version's commit ts (0 = initial)
	inferred  bool
	target    uint64 // current rw anti-dependency target (writer start), 0 none
}

type streamItem struct {
	versions []streamVer // sorted by commit ts
	reads    []itemRead  // committed readers' resolved observations
}

// Streaming is the incremental checker: it consumes StreamEvents (from a
// Tap or directly), maintains a sliding window of recent transactions and
// committed versions, and detects the paper's anomalies online with the
// same predicates as the offline classifiers in anomaly.go. Detection is
// false-negative-only: sampling gaps, window eviction, and unknown
// observations can hide an anomaly but never invent one.
type Streaming struct {
	mu         sync.Mutex
	cfg        StreamConfig
	tap        *Tap // set by Run, for exposition only
	txns       map[uint64]*streamTxn
	items      map[uint64]*streamItem
	byCommit   map[uint64]uint64      // commit ts -> start ts
	pendingObs map[uint64][][2]uint64 // pending writer start -> (reader, item)
	rw         map[[2]uint64]int      // anti-dependency edge refcounts
	skewPairs  map[[2]uint64]struct{}
	counts     StreamCounts
	maxCommit  uint64
	horizon    uint64 // highest low-water mark that actually pruned versions
	exemplars  []Exemplar
	exPos      int
}

// NewStreaming returns a checker with the given configuration.
func NewStreaming(cfg StreamConfig) *Streaming {
	if cfg.MaxTxns <= 0 {
		cfg.MaxTxns = 1 << 16
	}
	return &Streaming{
		cfg:        cfg,
		txns:       make(map[uint64]*streamTxn),
		items:      make(map[uint64]*streamItem),
		byCommit:   make(map[uint64]uint64),
		pendingObs: make(map[uint64][][2]uint64),
		rw:         make(map[[2]uint64]int),
		skewPairs:  make(map[[2]uint64]struct{}),
	}
}

// Process consumes one event.
func (s *Streaming) Process(ev StreamEvent) {
	s.mu.Lock()
	s.process(ev)
	s.mu.Unlock()
}

// ProcessAll consumes a batch of events in order.
func (s *Streaming) ProcessAll(evs []StreamEvent) {
	s.mu.Lock()
	for _, ev := range evs {
		s.process(ev)
	}
	s.mu.Unlock()
}

// Counts snapshots the counters.
func (s *Streaming) Counts() StreamCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts
}

// Exemplars returns the most recent anomaly exemplars, oldest first.
func (s *Streaming) Exemplars() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.exemplars))
	for i := 0; i < len(s.exemplars); i++ {
		out = append(out, s.exemplars[(s.exPos+i)%len(s.exemplars)].String())
	}
	return out
}

// WindowSize returns the number of transactions currently retained.
func (s *Streaming) WindowSize() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.txns)
}

func (s *Streaming) note(kind string, t1, t2, item uint64) {
	ex := Exemplar{Kind: kind, T1: t1, T2: t2, Item: item, At: s.maxCommit}
	if len(s.exemplars) < maxExemplars {
		s.exemplars = append(s.exemplars, ex)
	} else {
		s.exemplars[s.exPos] = ex
		s.exPos = (s.exPos + 1) % maxExemplars
	}
	if s.cfg.Logf != nil {
		s.cfg.Logf("history: anomaly %s", ex.String())
	}
}

func (s *Streaming) txn(start uint64) *streamTxn {
	t, ok := s.txns[start]
	if !ok {
		t = &streamTxn{start: start}
		s.txns[start] = t
		s.counts.Txns++
	}
	return t
}

func (s *Streaming) item(id uint64) *streamItem {
	it, ok := s.items[id]
	if !ok {
		it = &streamItem{}
		s.items[id] = it
	}
	return it
}

func (s *Streaming) process(ev StreamEvent) {
	s.counts.Events++
	switch ev.Kind {
	case EvBegin:
		s.txn(ev.Start)
	case EvRead:
		t := s.txn(ev.Start)
		if t.state != txnLive {
			return // late event after the decision; ignore
		}
		r := streamRead{item: ev.Item, obs: ev.Arg, seq: t.seq}
		t.seq++
		t.reads = append(t.reads, r)
		if ev.Arg == ObsUnknown {
			return
		}
		// Fuzzy read (ANSI P2): a second read of the same item observing
		// a different version, own-write transitions excluded — same
		// predicate as HasFuzzyRead, detected at the second read.
		if t.first == nil {
			t.first = make(map[uint64]uint64)
		}
		if first, ok := t.first[ev.Item]; ok {
			if first != ev.Arg && ev.Arg != t.start && first != t.start {
				s.counts.FuzzyRead++
				s.note("fuzzy_read", t.start, 0, ev.Item)
			}
		} else {
			t.first[ev.Item] = ev.Arg
		}
		// Dirty read (ANSI P1): the observed writer is aborted, or still
		// pending (resolved when the writer decides, or at Finalize).
		if ev.Arg != 0 && ev.Arg != t.start {
			switch w := s.txns[ev.Arg]; {
			case w == nil:
				// Writer outside the window (unsampled or evicted):
				// nothing provable.
			case w.state == txnAborted:
				s.counts.DirtyRead++
				s.note("dirty_read", t.start, ev.Arg, ev.Item)
			case w.state == txnLive:
				s.pendingObs[ev.Arg] = append(s.pendingObs[ev.Arg], [2]uint64{t.start, ev.Item})
			}
		}
	case EvWrite:
		t := s.txn(ev.Start)
		if t.state != txnLive {
			return
		}
		if t.wrote == nil {
			t.wrote = make(map[uint64]int)
		}
		if _, ok := t.wrote[ev.Item]; !ok {
			t.writes = append(t.writes, ev.Item)
		}
		t.wrote[ev.Item] = t.seq
		t.seq++
	case EvAbort:
		t := s.txn(ev.Start)
		if t.state != txnLive {
			s.counts.DoubleDecide++
			s.note("double_decide", t.start, 0, 0)
			return
		}
		t.state = txnAborted
		t.decided = s.maxCommit
		// Reads that observed this writer saw uncommitted data.
		for _, ref := range s.pendingObs[t.start] {
			s.counts.DirtyRead++
			s.note("dirty_read", ref[0], t.start, ref[1])
		}
		delete(s.pendingObs, t.start)
	case EvCommit:
		s.commit(ev.Start, ev.Arg)
	}
}

func (s *Streaming) commit(start, tc uint64) {
	t := s.txn(start)
	if t.state == txnCommitted {
		if t.commit != tc {
			s.counts.DoubleDecide++
			s.note("double_decide", start, 0, 0)
		}
		return
	}
	if t.state == txnAborted {
		s.counts.DoubleDecide++
		s.note("double_decide", start, 0, 0)
		return
	}
	// Invariant watchdogs: commit timestamps must exceed the start
	// timestamp (read-only transactions legitimately commit at their
	// snapshot) and be unique across transactions.
	if tc < start || (tc == start && len(t.writes) > 0) {
		s.counts.NonMonotone++
		s.note("nonmonotone_commit", start, 0, 0)
	}
	if prev, ok := s.byCommit[tc]; ok && prev != start {
		s.counts.NonMonotone++
		s.note("duplicate_commit_ts", start, prev, 0)
	}
	s.byCommit[tc] = start
	if tc > s.maxCommit {
		s.maxCommit = tc
	}
	t.state = txnCommitted
	t.commit = tc
	t.decided = tc

	// Observers that read this writer while it was pending saw data that
	// was not committed at their snapshot (the commit timestamp is
	// necessarily later than their read).
	for _, ref := range s.pendingObs[start] {
		s.counts.DirtyRead++
		s.note("dirty_read", ref[0], start, ref[1])
	}
	delete(s.pendingObs, start)

	// Install this transaction's versions and recompute anti-dependency
	// targets for the affected readers.
	for _, itemID := range t.writes {
		s.installVersion(itemID, tc, start)
	}
	// Register the transaction's reads and run the commit-time detectors.
	for _, r := range t.reads {
		s.registerRead(t, r, tc)
	}
	s.enforceCap()
}

// installVersion inserts (tc, writer) into the item's version order and
// updates the rw anti-dependency target of every registered reader of the
// item, since the new version may now be some reader's immediate
// successor.
func (s *Streaming) installVersion(itemID, tc, writer uint64) {
	it := s.item(itemID)
	pos := sort.Search(len(it.versions), func(i int) bool { return it.versions[i].commit >= tc })
	it.versions = append(it.versions, streamVer{})
	copy(it.versions[pos+1:], it.versions[pos:])
	it.versions[pos] = streamVer{commit: tc, writer: writer}
	for i := range it.reads {
		r := &it.reads[i]
		reader := s.txns[r.reader]
		if reader == nil {
			continue
		}
		// A version that committed before the reader's snapshot refines
		// an inferred observation.
		if r.inferred && tc < reader.start && tc > r.obsCommit {
			r.obsCommit = tc
		}
		s.retarget(it, r, reader)
	}
}

// retarget recomputes one registered read's rw anti-dependency edge: the
// writer of the immediate next version after the observed one, guarded to
// versions that committed after the reader's snapshot (a genuine
// anti-dependency under correct snapshot reads; anything else would be
// fabrication from incomplete information).
func (s *Streaming) retarget(it *streamItem, r *itemRead, reader *streamTxn) {
	var target uint64
	pos := sort.Search(len(it.versions), func(i int) bool { return it.versions[i].commit > r.obsCommit })
	if pos < len(it.versions) {
		v := it.versions[pos]
		// The last guard is the eviction-soundness condition. Evicted
		// versions all committed at or below the horizon, so none can
		// hide in the observation-to-successor gap when either bound
		// clears it: an observation at or above the horizon starts the
		// gap past everything evicted, and a snapshot at or above the
		// horizon means a consistent read would have observed any
		// evicted version rather than skipped it (and the successor
		// guard already excludes versions below the snapshot). Under a
		// live oracle the low-water mark trails every active snapshot,
		// so the guard never costs a detection there.
		if v.writer != r.reader && v.commit > reader.start &&
			(reader.start >= s.horizon || r.obsCommit >= s.horizon) {
			target = v.writer
		}
	}
	if target == r.target {
		return
	}
	if r.target != 0 {
		s.dropEdge(r.reader, r.target)
	}
	r.target = target
	if target != 0 {
		s.addEdge(r.reader, target)
	}
}

func (s *Streaming) addEdge(from, to uint64) {
	s.rw[[2]uint64{from, to}]++
	if s.rw[[2]uint64{to, from}] == 0 {
		return
	}
	// Mutual anti-dependency: a pure rw–rw cycle of length two — write
	// skew — provided the two transactions really overlapped.
	a, b := s.txns[from], s.txns[to]
	if a == nil || b == nil || a.state != txnCommitted || b.state != txnCommitted {
		return
	}
	if !(a.start < b.commit && b.start < a.commit) {
		return
	}
	key := [2]uint64{from, to}
	if to < from {
		key = [2]uint64{to, from}
	}
	if _, seen := s.skewPairs[key]; seen {
		return
	}
	s.skewPairs[key] = struct{}{}
	s.counts.WriteSkew++
	s.note("write_skew", key[0], key[1], 0)
}

func (s *Streaming) dropEdge(from, to uint64) {
	key := [2]uint64{from, to}
	if n := s.rw[key]; n > 1 {
		s.rw[key] = n - 1
	} else {
		delete(s.rw, key)
	}
}

// registerRead resolves one read of a now-committed transaction against
// the version window and runs the read-anchored detectors.
func (s *Streaming) registerRead(t *streamTxn, r streamRead, tc uint64) {
	it := s.item(r.item)
	var obsCommit uint64
	inferred := false
	switch {
	case r.obs == t.start: // own write: observes own version at tc
		obsCommit = tc
	case r.obs == 0:
		obsCommit = 0
	case r.obs == ObsUnknown:
		// Set-only tap: infer the observation as the latest known
		// version below the snapshot (exactly what a correct snapshot
		// read returns; with gaps the inference is older, which only
		// suppresses edges — never fabricates, thanks to the
		// commit-after-start guard in retarget).
		inferred = true
		pos := sort.Search(len(it.versions), func(i int) bool { return it.versions[i].commit >= t.start })
		if pos > 0 {
			obsCommit = it.versions[pos-1].commit
		}
	default:
		w := s.txns[r.obs]
		if w == nil || w.state != txnCommitted {
			// Unknown or undecided writer: dirty-read accounting
			// already handled this read; nothing else provable.
			return
		}
		obsCommit = w.commit
		if obsCommit >= t.start {
			// Read from the future: the observed version committed at
			// or after the reader's snapshot.
			s.counts.SnapViolation++
			s.note("snapshot_violation", t.start, r.obs, r.item)
		}
	}
	// Acked-commit-invisible watchdog: a version committed before the
	// reader's snapshot but after the observed one should have been
	// visible (precise observations only).
	if !inferred && r.obs != ObsUnknown {
		pos := sort.Search(len(it.versions), func(i int) bool { return it.versions[i].commit > obsCommit })
		for ; pos < len(it.versions); pos++ {
			v := it.versions[pos]
			if v.commit >= t.start {
				break
			}
			if v.writer != t.start {
				s.counts.SnapViolation++
				s.note("snapshot_violation", t.start, v.writer, r.item)
				break
			}
		}
	}
	// Lost update: the transaction read the item (not from its own
	// write), wrote it afterwards, and the immediately preceding version
	// was committed by an invisible concurrent writer.
	if r.obs != t.start {
		if lastWrite, wrote := t.wrote[r.item]; wrote && lastWrite > r.seq {
			pos := sort.Search(len(it.versions), func(i int) bool { return it.versions[i].commit >= tc })
			if pos > 0 {
				prev := it.versions[pos-1]
				prevObserved := !inferred && r.obs != ObsUnknown && prev.writer == r.obs
				if !prevObserved && prev.writer != t.start && prev.commit > t.start && prev.commit < tc {
					s.counts.LostUpdate++
					s.note("lost_update", t.start, prev.writer, r.item)
				}
			}
		}
	}
	ir := itemRead{reader: t.start, obsCommit: obsCommit, inferred: inferred}
	it.reads = append(it.reads, ir)
	s.retarget(it, &it.reads[len(it.reads)-1], t)
}

// Finalize settles end-of-stream obligations for tests and shutdown:
// reads whose observed writer never decided are dirty reads (the offline
// classifier's "uncommitted at end of history").
func (s *Streaming) Finalize() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for w, refs := range s.pendingObs {
		for _, ref := range refs {
			s.counts.DirtyRead++
			s.note("dirty_read", ref[0], w, ref[1])
		}
		delete(s.pendingObs, w)
	}
}

// EvictBelow drops window state whose evidence predates the low-water
// mark: decided transactions with decision timestamp <= lw, versions with
// commit <= lw, and registered reads whose observation predates lw. The
// invariant: eviction only forfeits detections, it never fabricates one —
// surviving reads keep every version between their observation and any
// future successor, so recomputed edges stay exact.
func (s *Streaming) EvictBelow(lw uint64) {
	if lw == 0 {
		return
	}
	s.mu.Lock()
	s.evictBelow(lw)
	s.mu.Unlock()
}

func (s *Streaming) evictBelow(lw uint64) {
	evicted := make(map[uint64]bool)
	for start, t := range s.txns {
		if t.state != txnLive && t.decided <= lw {
			evicted[start] = true
			delete(s.txns, start)
			if t.state == txnCommitted {
				delete(s.byCommit, t.commit)
			}
			s.counts.Evicted++
		}
	}
	if len(evicted) == 0 {
		// Nothing decided below the mark: every version outlives lw (a
		// version's transaction decides at its commit), and surviving
		// reads keep their full observation-to-successor span.
		return
	}
	// Versions with commit <= lw are about to disappear. A read
	// registered later whose observation sits below this horizon cannot
	// prove which surviving version is the *immediate* successor — the
	// true one may have been evicted — so retarget refuses it an rw
	// edge rather than fabricate an anti-dependency.
	if lw > s.horizon {
		s.horizon = lw
	}
	for id, it := range s.items {
		// Drop reads first (their edges reference the version order),
		// then stale versions.
		keptReads := it.reads[:0]
		for i := range it.reads {
			r := it.reads[i]
			if evicted[r.reader] || r.obsCommit <= lw {
				if r.target != 0 {
					s.dropEdge(r.reader, r.target)
				}
				continue
			}
			keptReads = append(keptReads, r)
		}
		it.reads = keptReads
		keptVers := it.versions[:0]
		for _, v := range it.versions {
			if v.commit > lw {
				keptVers = append(keptVers, v)
			}
		}
		it.versions = keptVers
		if len(it.reads) == 0 && len(it.versions) == 0 {
			delete(s.items, id)
		}
	}
	for pair := range s.rw {
		if evicted[pair[0]] || evicted[pair[1]] {
			delete(s.rw, pair)
		}
	}
	for pair := range s.skewPairs {
		if evicted[pair[0]] || evicted[pair[1]] {
			delete(s.skewPairs, pair)
		}
	}
}

// enforceCap evicts the oldest decided transactions once the window
// exceeds its configured size.
func (s *Streaming) enforceCap() {
	if len(s.txns) <= s.cfg.MaxTxns {
		return
	}
	decided := make([]uint64, 0, len(s.txns))
	for _, t := range s.txns {
		if t.state != txnLive {
			decided = append(decided, t.decided)
		}
	}
	over := len(s.txns) - s.cfg.MaxTxns
	if over > len(decided) {
		over = len(decided)
	}
	if over == 0 {
		return
	}
	sort.Slice(decided, func(i, j int) bool { return decided[i] < decided[j] })
	s.evictBelow(decided[over-1])
}

// Run attaches the checker to a tap: a background goroutine drains the
// rings every interval, feeds the checker, and applies low-water eviction.
// The returned stop function performs a final drain and waits for the
// goroutine to exit.
func (s *Streaming) Run(tap *Tap, every time.Duration) (stop func()) {
	if every <= 0 {
		every = 50 * time.Millisecond
	}
	s.mu.Lock()
	s.tap = tap
	s.mu.Unlock()
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		buf := make([]StreamEvent, 0, 1024)
		pump := func() {
			buf = tap.Drain(buf[:0])
			if len(buf) > 0 {
				s.ProcessAll(buf)
			}
			if s.cfg.LowWater != nil {
				s.EvictBelow(s.cfg.LowWater())
			}
		}
		for {
			select {
			case <-ticker.C:
				pump()
			case <-done:
				pump()
				return
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}

// MetricsSource exposes the checker (and its tap, when attached) through
// the metrics registry as the history_* family.
func (s *Streaming) MetricsSource() metrics.Source {
	return func(emit func(metrics.Sample)) {
		s.mu.Lock()
		c := s.counts
		windowTxns := len(s.txns)
		windowItems := len(s.items)
		tap := s.tap
		s.mu.Unlock()
		emit(metrics.C("history_events_total", c.Events))
		emit(metrics.C("history_txns_sampled_total", c.Txns))
		emit(metrics.C("history_write_skew_total", c.WriteSkew))
		emit(metrics.C("history_lost_update_total", c.LostUpdate))
		emit(metrics.C("history_dirty_read_total", c.DirtyRead))
		emit(metrics.C("history_fuzzy_read_total", c.FuzzyRead))
		emit(metrics.C("history_snapshot_violation_total", c.SnapViolation))
		emit(metrics.C("history_nonmonotone_commit_total", c.NonMonotone))
		emit(metrics.C("history_double_decide_total", c.DoubleDecide))
		emit(metrics.C("history_window_evicted_total", c.Evicted))
		emit(metrics.G("history_window_txns", float64(windowTxns)))
		emit(metrics.G("history_window_items", float64(windowItems)))
		if tap != nil {
			emit(metrics.C("history_tap_dropped_total", tap.Dropped()))
			emit(metrics.G("history_tap_sampling", tap.Sampling()))
		}
	}
}
