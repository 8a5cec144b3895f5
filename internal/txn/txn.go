package txn

import (
	"slices"
	"sync"

	"repro/internal/history"
	"repro/internal/kvstore"
	"repro/internal/oracle"
)

// Value encoding inside the store: a one-byte tag distinguishes live values
// from tombstones so that MVCC deletes are ordinary versioned writes.
const (
	tagTombstone = 0x00
	tagValue     = 0x01
)

func encodeValue(v []byte) []byte {
	out := make([]byte, 1+len(v))
	out[0] = tagValue
	copy(out[1:], v)
	return out
}

var tombstone = []byte{tagTombstone} // shared and read-only: the store keeps what it is given

func decodeValue(raw []byte) (value []byte, live bool) {
	if len(raw) == 0 || raw[0] == tagTombstone {
		return nil, false
	}
	return raw[1:], true
}

// Txn is one transaction. A Txn must be used by a single goroutine.
//
// The transaction keeps no copy of what it writes: its tentative versions
// live in the store at its start timestamp, and its own reads find them
// there — a writer reads at startTS+1 and takes the version written at
// startTS as its own (pick). What it keeps are its row sets, in pooled
// arrays (sets).
type Txn struct {
	client  *Client
	startTS uint64

	done      bool
	committed bool
	commitTS  uint64
	// readOnly marks a BeginAt time-travel transaction: writes are
	// rejected and commit is local (no oracle interaction).
	readOnly bool
	// sets holds the transaction's row sets in pooled arrays: taken by the
	// first read or write, returned once the arbiter has decided or the
	// transaction aborts (no layer retains the hashed sets past the
	// decision). nil for a transaction that has touched no row yet.
	sets *commitSets
	// tap is the sampled anomaly-lab event sink; nil unless the client
	// has a Tap configured and this transaction won the sampling draw at
	// Begin. Recording is allocation-free.
	tap *history.Tap
}

// tapRead records one sampled read with the observed version's writer
// start timestamp (0 = no visible version, t.startTS = own write).
func (t *Txn) tapRead(key string, obs uint64) {
	if t.tap != nil {
		t.tap.Record(history.StreamEvent{
			Kind: history.EvRead, Start: t.startTS,
			Item: uint64(oracle.HashRow(key)), Arg: obs,
		})
	}
}

// tapWrite records one sampled write.
func (t *Txn) tapWrite(key string) {
	if t.tap != nil {
		t.tap.Record(history.StreamEvent{
			Kind: history.EvWrite, Start: t.startTS,
			Item: uint64(oracle.HashRow(key)),
		})
	}
}

// tapDecision records the transaction's fate once the arbiter decided.
func (t *Txn) tapDecision(committed bool, commitTS uint64) {
	if t.tap == nil {
		return
	}
	if committed {
		t.tap.Record(history.StreamEvent{Kind: history.EvCommit, Start: t.startTS, Arg: commitTS})
	} else {
		t.tap.Record(history.StreamEvent{Kind: history.EvAbort, Start: t.startTS})
	}
}

// commitSets is a transaction's row sets in recycled arrays, so a steady
// transaction rate records and hashes them with zero allocation:
//   - keys holds the written keys, once each: Store.Put reports whether a
//     write is new, so a rewrite of the same key adds nothing;
//   - r holds the hashed rows (and §5.2 bucket labels) read so far,
//     deduplicated by sort and compact at commit, and whenever the array is
//     full, so repeated reads of one row stay bounded;
//   - w is the write set prepareCommit hashes from keys.
type commitSets struct {
	keys []string
	w, r []oracle.RowID
}

var commitSetsPool = sync.Pool{New: func() interface{} { return new(commitSets) }}

// rowSets returns the transaction's row sets, taking them from the pool at
// first use.
func (t *Txn) rowSets() *commitSets {
	if t.sets == nil {
		t.sets = commitSetsPool.Get().(*commitSets)
	}
	return t.sets
}

// written returns the keys this transaction has written, once each.
func (t *Txn) written() []string {
	if t.sets == nil {
		return nil
	}
	return t.sets.keys
}

// read adds key's row to the read set.
func (t *Txn) read(key string) { t.readRow(oracle.HashRow(key)) }

// readRow adds a hashed row or bucket to the read set. A BeginAt reader
// submits no read set, so it records none.
func (t *Txn) readRow(id oracle.RowID) {
	if t.readOnly {
		return
	}
	s := t.rowSets()
	if len(s.r) == cap(s.r) {
		s.r = compactRows(s.r)
		// Mostly distinct rows: grow now, or the next few reads would
		// compact the same array again.
		if len(s.r) > cap(s.r)/2 {
			s.r = slices.Grow(s.r, cap(s.r))
		}
	}
	s.r = append(s.r, id)
}

// compactRows sorts ids and drops the duplicates, in place.
func compactRows(ids []oracle.RowID) []oracle.RowID {
	slices.Sort(ids)
	return slices.Compact(ids)
}

// before is the snapshot bound this transaction reads the store at. A
// writer's own tentative versions sit at its start timestamp, so it reads
// one above; a BeginAt reader owns no version, and one written at its
// timestamp is another transaction's.
func (t *Txn) before() uint64 {
	if t.readOnly {
		return t.startTS
	}
	return t.startTS + 1
}

// StartTS returns the transaction's start timestamp (its snapshot).
func (t *Txn) StartTS() uint64 { return t.startTS }

// CommitTS returns the commit timestamp after a successful Commit.
func (t *Txn) CommitTS() uint64 { return t.commitTS }

// Committed reports whether Commit succeeded.
func (t *Txn) Committed() bool { return t.committed }

// Get returns the value of key in this transaction's snapshot. ok is false
// when the row does not exist in the snapshot (never written, deleted, or
// written only by invisible transactions).
func (t *Txn) Get(key string) (value []byte, ok bool, err error) {
	if t.done {
		return nil, false, ErrClosed
	}
	t.read(key)
	raw, obs := t.snapshotRead(key)
	t.tapRead(key, obs)
	val, live := decodeValue(raw)
	if !live {
		return nil, false, nil
	}
	return append([]byte(nil), val...), true, nil
}

// Every read takes the same road. The store hands back a row's candidates —
// its unstamped versions below the snapshot and the one stamped version that
// can win, and the transaction's own write — each with its commit timestamp
// if anybody has stamped it; unstamped collects the rest, resolveInto asks
// the mode's source about them in one batch, pick walks each row's
// candidates in the same order — stamp when present, next answer otherwise —
// and every committed answer is stamped back into the store, so no reader of
// that version, on any client, asks again.

// snapshotRead returns the raw store value of key in this transaction's
// snapshot and its writer's start timestamp (nil, 0 when it has none).
// Stack-backed buffers keep a row's few candidates — the common Get shape,
// however long the chain — off the heap.
func (t *Txn) snapshotRead(key string) (raw []byte, obs uint64) {
	var (
		versionBuf [4]kvstore.Version
		askBuf     [4]uint64
		statusBuf  [4]oracle.TxnStatus
		stampBuf   [4]kvstore.Stamp
	)
	versions := t.client.store.GetInto(versionBuf[:0], key, t.before(), 0)
	statuses := t.client.resolveInto(unstamped(askBuf[:0], versions, t.startTS), statusBuf[:0])
	raw, obs, _, stamps := pick(key, versions, t.startTS, statuses, stampBuf[:0])
	t.client.store.StampCommits(stamps)
	return raw, obs
}

// unstamped appends to ask the write timestamps of the versions nobody has
// resolved yet. A row the transaction wrote asks nothing: its own version is
// the answer.
func unstamped(ask []uint64, versions []kvstore.Version, startTS uint64) []uint64 {
	if own(versions, startTS) {
		return ask
	}
	for i := range versions {
		if versions[i].CommitTS == 0 {
			ask = append(ask, versions[i].TS)
		}
	}
	return ask
}

// own reports whether a row's candidates, newest TS first, start with the
// version written at startTS: the reading transaction's own tentative write,
// which no other version can follow in TS order.
func own(versions []kvstore.Version, startTS uint64) bool {
	return len(versions) > 0 && versions[0].TS == startTS
}

// pick selects key's snapshot version: the transaction's own write if it
// made one (own), and otherwise, among the committed versions with
// commit timestamp below startTS, the one with the *largest commit
// timestamp*. Selecting by commit rather than write (start) timestamp
// matters under WSI, which — unlike SI — allows two overlapping transactions
// to write the same row (History 4): the version written by the
// earlier-starting but later-committing transaction is the current one
// (§4.1: a transaction "writes into a separate snapshot of the database
// specified by the transaction commit timestamp"), so every candidate the
// store hands back is walked. statuses answers the row's unstamped versions
// in order; pick returns the answers it did not use, and stamps with every
// committed answer appended. Pending, aborted and unknown writers are skipped (§2.2) and
// leave no stamp: pending and unknown are not facts yet, write-back mode's
// unknown-means-aborted is an inference, and an aborted version is its
// writer's to delete.
func pick(key string, versions []kvstore.Version, startTS uint64, statuses []oracle.TxnStatus, stamps []kvstore.Stamp) (raw []byte, obs uint64, _ []oracle.TxnStatus, _ []kvstore.Stamp) {
	if own(versions, startTS) {
		return versions[0].Value, startTS, statuses, stamps
	}
	var bestTC uint64
	for i := range versions {
		tc := versions[i].CommitTS
		if tc == 0 {
			st := statuses[0]
			statuses = statuses[1:]
			if st.Status != oracle.StatusCommitted {
				continue
			}
			tc = st.CommitTS
			stamps = append(stamps, kvstore.Stamp{Key: key, WriteTS: versions[i].TS, CommitTS: tc})
		}
		if tc < startTS && tc > bestTC {
			bestTC, raw, obs = tc, versions[i].Value, versions[i].TS
		}
	}
	return raw, obs, statuses, stamps
}

// readScratch is everything GetMulti and Scan need and do not return: the
// store's read buffer, the unstamped versions' write timestamps, their
// writers' statuses and the stamps the read learned. Pooled, so a steady
// read rate allocates only what the caller keeps.
type readScratch struct {
	buf      kvstore.ReadBuf
	ask      []uint64
	statuses []oracle.TxnStatus
	stamps   []kvstore.Stamp
}

var readScratchPool = sync.Pool{New: func() interface{} { return new(readScratch) }}

// GetMulti reads many keys from the snapshot in one pass: the store fetch
// is one read-lock hold for the whole set, and every unresolved writer
// across the whole read set is resolved in a single batched status lookup —
// one oracle round trip instead of one per version.
// values[i] and ok[i] answer keys[i] with Get's exact semantics; the whole
// set joins the read set.
func (t *Txn) GetMulti(keys []string) (values [][]byte, ok []bool, err error) {
	if t.done {
		return nil, nil, ErrClosed
	}
	values = make([][]byte, len(keys))
	ok = make([]bool, len(keys))
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	for _, key := range keys {
		t.read(key)
	}
	t.client.store.MultiGetInto(&sc.buf, keys, t.before(), 0)
	ask, stamps := sc.ask[:0], sc.stamps[:0]
	for k := range keys {
		ask = unstamped(ask, sc.buf.Versions(k), t.startTS)
	}
	sc.statuses = t.client.resolveInto(ask, sc.statuses)
	statuses := sc.statuses
	for k, key := range keys {
		var raw []byte
		var obs uint64
		raw, obs, statuses, stamps = pick(key, sc.buf.Versions(k), t.startTS, statuses, stamps)
		t.tapRead(key, obs)
		if val, live := decodeValue(raw); live {
			values[k] = append([]byte(nil), val...)
			ok[k] = true
		}
	}
	t.client.store.StampCommits(stamps)
	sc.ask, sc.stamps = ask, stamps
	return values, ok, nil
}

// Put writes key=value, visible to this transaction immediately and to
// others only if the transaction commits. The value is copied once, into
// the encoded version the store keeps as the tentative write at the start
// timestamp; the caller may reuse its buffer.
func (t *Txn) Put(key string, value []byte) error {
	if err := t.writable(); err != nil {
		return err
	}
	t.write(key, encodeValue(value))
	return nil
}

// Delete removes key (a versioned tombstone write).
func (t *Txn) Delete(key string) error {
	if err := t.writable(); err != nil {
		return err
	}
	t.write(key, tombstone)
	return nil
}

// writable reports why the transaction may not write, if it may not.
func (t *Txn) writable() error {
	if t.done {
		return ErrClosed
	}
	if t.readOnly {
		return errReadOnly
	}
	return nil
}

// write stores enc as the transaction's tentative version of key and
// records key in the write set the first time it is written.
func (t *Txn) write(key string, enc []byte) {
	t.tapWrite(key)
	if t.client.store.Put(key, t.startTS, enc) {
		s := t.rowSets()
		s.keys = append(s.keys, key)
	}
}

// KV is one row of a scan result.
type KV struct {
	Key   string
	Value []byte
}

// Scan returns the live rows in [startKey, endKey) of the snapshot, in key
// order, at most limit rows (limit <= 0 means all). Every row the scan
// inspects joins the read set: the paper defines the submitted read set as
// "the rows that are actually read by the transaction, whether these rows
// were originally specified by their primary keys or by a search
// condition" (§5).
func (t *Txn) Scan(startKey, endKey string, limit int) ([]KV, error) {
	return t.scan(startKey, endKey, limit, false)
}

// BucketScan is the §5.2 analytics extension: like Scan, but instead of
// adding every inspected row to the read set it adds the compact,
// over-approximated bucket representation of the range. It requires the
// client to be configured with a Bucketer (writers then publish write
// buckets, making bucket-level conflict detection sound).
func (t *Txn) BucketScan(startKey, endKey string, limit int) ([]KV, error) {
	return t.scan(startKey, endKey, limit, true)
}

func (t *Txn) scan(startKey, endKey string, limit int, buckets bool) ([]KV, error) {
	if t.done {
		return nil, ErrClosed
	}
	if buckets {
		if t.client.cfg.Bucketer == nil {
			return nil, errBucketerRequired
		}
		for _, b := range t.client.cfg.Bucketer.RangeBuckets(startKey, endKey) {
			t.readRow(bucketRowID(b))
		}
	}
	// The store's rows come in key order, the transaction's own among them.
	rows := t.client.store.Scan(startKey, endKey, t.before(), 0, 0)
	sc := readScratchPool.Get().(*readScratch)
	defer readScratchPool.Put(sc)
	// Resolve every unstamped candidate across the scanned range in one
	// batched status lookup.
	ask, stamps := sc.ask[:0], sc.stamps[:0]
	for _, r := range rows {
		if !buckets {
			t.read(r.Key)
		}
		ask = unstamped(ask, r.Versions, t.startTS)
	}
	sc.statuses = t.client.resolveInto(ask, sc.statuses)
	statuses := sc.statuses
	n := len(rows)
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]KV, 0, n)
	for _, r := range rows {
		var raw []byte
		var obs uint64
		raw, obs, statuses, stamps = pick(r.Key, r.Versions, t.startTS, statuses, stamps)
		if !buckets {
			t.tapRead(r.Key, obs)
		}
		if val, live := decodeValue(raw); live && len(out) < n {
			out = append(out, KV{Key: r.Key, Value: append([]byte(nil), val...)})
		}
	}
	t.client.store.StampCommits(stamps)
	sc.ask, sc.stamps = ask, stamps
	return out, nil
}

// Commit submits the transaction to the status oracle. It returns nil on
// commit and ErrConflict when the oracle aborts the transaction (in which
// case the tentative writes have been cleaned up).
func (t *Txn) Commit() error {
	if t.done {
		return ErrClosed
	}
	t.done = true
	if t.readOnly {
		// Time-travel transactions never touched the oracle.
		t.committed = true
		t.commitTS = t.startTS
		return nil
	}
	res, err := t.client.so.Commit(t.prepareCommit())
	return t.finishCommit(res, err)
}

// prepareCommit renders the oracle request: the hashed write set (plus
// write buckets under a Bucketer) and, for WSI, the hashed read set.
// Read-only transactions submit empty sets (§5.1).
func (t *Txn) prepareCommit() oracle.CommitRequest {
	keys := t.written()
	if len(keys) == 0 {
		return oracle.CommitRequest{StartTS: t.startTS}
	}
	s := t.sets
	w := s.w[:0]
	for _, k := range keys {
		w = append(w, oracle.HashRow(k))
	}
	if bucketer := t.client.cfg.Bucketer; bucketer != nil {
		// Publish write buckets so bucket-level read sets detect conflicts,
		// and always the whole-table bucket so degraded scans
		// (WholeTableBucket read sets) stay sound.
		rows := len(w)
		for _, k := range keys {
			w = append(w, bucketRowID(bucketer.Bucket(k)))
		}
		w = append(w, bucketRowID(WholeTableBucket))
		w = w[:rows+len(compactRows(w[rows:]))]
	}
	// Keep the (possibly grown) arrays on the pooled holder so the pool
	// retains their capacity when the transaction releases them.
	s.w, s.r = w, compactRows(s.r)
	return oracle.CommitRequest{StartTS: t.startTS, WriteSet: s.w, ReadSet: s.r}
}

// releaseSets returns the transaction's pooled row sets once it is decided.
// Nothing downstream retains the hashed sets past the decision: the oracle
// copies what it keeps, the wire client copies them into its frame buffer,
// and the partition coordinator slices copies.
func (t *Txn) releaseSets() {
	if s := t.sets; s != nil {
		clear(s.keys) // the pool must not keep the keys alive
		s.keys, s.w, s.r = s.keys[:0], s.w[:0], s.r[:0]
		commitSetsPool.Put(s)
		t.sets = nil
	}
}

// finishCommit applies the oracle's decision to the transaction: cleanup and
// forget on conflict, commit bookkeeping and (in write-back mode) stamps on
// its own write set on success. A submission error leaves the decision in
// doubt and is settled by querying the transaction's status — never by
// resubmitting.
func (t *Txn) finishCommit(res oracle.CommitResult, err error) error {
	t.client.active.remove(t.startTS)
	// The arbiter has decided (or definitively failed); no layer holds the
	// hashed row sets any longer, and the written keys go once the cleanup
	// or the write-back stamps have used them.
	defer t.releaseSets()
	if err != nil {
		return t.settleInDoubt(err)
	}
	if !res.Committed {
		t.tapDecision(false, 0)
		t.cleanup()
		t.client.forget(t.startTS)
		return ErrConflict
	}
	return t.applyCommitted(res.CommitTS)
}

// applyCommitted records a successful commit decision.
func (t *Txn) applyCommitted(commitTS uint64) error {
	t.committed = true
	t.commitTS = commitTS
	t.tapDecision(true, commitTS)
	if t.client.cfg.Mode == ModeWriteBack {
		keys := t.written()
		stamps := make([]kvstore.Stamp, 0, len(keys))
		for _, k := range keys {
			stamps = append(stamps, kvstore.Stamp{Key: k, WriteTS: t.startTS, CommitTS: commitTS})
		}
		t.client.store.StampCommits(stamps)
	}
	return nil
}

// settleInDoubt resolves a commit whose submission failed (connection
// lost, server fenced mid-failover, WAL quorum error): the decision may or
// may not have landed. The transaction's status — fetched through the
// arbiter, which for a failover client means the reconnected, possibly
// newly promoted server — is the authority:
//
//   - committed: the decision was durable before the failure; the commit
//     is acknowledged with its real commit timestamp (an ack lost in
//     transit is recovered, not lost).
//   - aborted: the oracle decided a conflict abort; normal abort cleanup.
//   - pending/unknown or unresolvable: the original error is surfaced and
//     the tentative writes are left in place — they are invisible to
//     readers while undecided, and deleting them could lose a commit that
//     did land but is momentarily unobservable. The caller may retry the
//     whole transaction (with a fresh timestamp) or garbage-collection
//     will reap the versions once the fate is knowable.
func (t *Txn) settleInDoubt(cause error) error {
	st, resolved := t.client.resolveFate(t.startTS)
	if !resolved {
		return cause
	}
	switch st.Status {
	case oracle.StatusCommitted:
		return t.applyCommitted(st.CommitTS)
	case oracle.StatusAborted:
		t.tapDecision(false, 0)
		t.cleanup()
		t.client.forget(t.startTS)
		return ErrConflict
	default:
		return cause
	}
}

// Abort rolls the transaction back: tentative versions are deleted and the
// abort is recorded at the status oracle so concurrent readers skip any
// version they may already have fetched.
func (t *Txn) Abort() error {
	if t.done {
		return ErrClosed
	}
	t.done = true
	if t.readOnly {
		return nil
	}
	t.client.active.remove(t.startTS)
	t.tapDecision(false, 0)
	defer t.releaseSets()
	if len(t.written()) == 0 {
		return nil
	}
	if err := t.client.so.Abort(t.startTS); err != nil {
		return err
	}
	t.cleanup()
	t.client.forget(t.startTS)
	return nil
}

// cleanup removes the transaction's tentative versions from the store.
func (t *Txn) cleanup() {
	for _, k := range t.written() {
		t.client.store.DeleteVersion(k, t.startTS)
	}
}
