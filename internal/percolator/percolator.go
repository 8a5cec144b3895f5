// Package percolator implements the lock-based snapshot-isolation baseline
// the paper contrasts with (§2.1, §7.2): Google Percolator's two-phase
// commit over a Bigtable-like store.
//
// Each logical key has three columns, emulated here by key prefixes on the
// shared multi-version store:
//
//	data  (d:key @ startTS)  — the transaction's tentative value;
//	lock  (l:key @ startTS)  — held during 2PC, names the primary key;
//	write (w:key @ commitTS) — commit record pointing at the data version.
//
// Phase one (prewrite) writes data and acquires locks, aborting on
// write-write conflicts or lock collisions. Phase two erases the primary
// lock and installs its write record — the commit point — then lazily
// completes the secondaries. Readers that find a lock must resolve it via
// the primary (§2.1's "query the status of the transaction that has locked
// the column"): roll the transaction forward if its primary write record
// exists, roll it back if its primary lock has expired. The paper's
// criticism — "the locks a failed or slow transaction holds prevent the
// others from making progress during recovery" — is directly observable in
// this implementation.
package percolator

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/kvstore"
	"repro/internal/tso"
)

// Column prefixes on the shared store.
const (
	prefixData  = "d:"
	prefixLock  = "l:"
	prefixWrite = "w:"
)

// Errors returned by the Percolator client.
var (
	// ErrConflict is a write-write conflict or lock collision abort.
	ErrConflict = errors.New("percolator: conflict abort")
	// ErrClosed reports use of a finished transaction.
	ErrClosed = errors.New("percolator: transaction already finished")
	// ErrLockTimeout reports a reader giving up on a stuck lock that
	// could not be resolved.
	ErrLockTimeout = errors.New("percolator: lock wait timeout")
)

// Config parameterizes the client.
type Config struct {
	// LockTTL is how long a lock may sit before readers may roll the
	// owning transaction back (models Percolator's worker liveness
	// check).
	LockTTL time.Duration
	// LockWait is how long a reader polls a live lock before giving up.
	LockWait time.Duration
	// RetryInterval is the poll interval while waiting on locks.
	RetryInterval time.Duration
}

// DefaultConfig returns conservative defaults for tests and examples.
func DefaultConfig() Config {
	return Config{
		LockTTL:       100 * time.Millisecond,
		LockWait:      500 * time.Millisecond,
		RetryInterval: 2 * time.Millisecond,
	}
}

// Client runs lock-based SI transactions over a store.
type Client struct {
	store *kvstore.Store
	tso   *tso.Oracle
	cfg   Config
	rows  *rowLocks
	clock func() time.Time // injectable for lock-expiry tests
}

// NewClient creates a Percolator client. Clients sharing a store must share
// nothing else; coordination happens entirely through the store's columns,
// exactly as in the paper's distributed setting — except the single-row
// atomicity Bigtable provides, which rowLocks emulates.
func NewClient(store *kvstore.Store, clock *tso.Oracle, cfg Config) *Client {
	if cfg.LockTTL <= 0 {
		cfg.LockTTL = 100 * time.Millisecond
	}
	if cfg.LockWait <= 0 {
		cfg.LockWait = 500 * time.Millisecond
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 2 * time.Millisecond
	}
	return &Client{store: store, tso: clock, cfg: cfg, rows: globalRowLocks, clock: time.Now}
}

// rowLocks emulates Bigtable single-row transactions: all mutations of one
// logical row's columns happen under its stripe mutex. It is global so that
// independent clients of the same process (our tests' "workers") contend on
// the same rows, as independent Percolator workers do on a tablet server.
// Striping keeps memory bounded; hash collisions only add contention,
// never unsafety.
type rowLocks struct {
	stripes [1024]sync.Mutex
}

var globalRowLocks = new(rowLocks)

func (rl *rowLocks) lock(key string) func() {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	m := &rl.stripes[h%uint32(len(rl.stripes))]
	m.Lock()
	return m.Unlock
}

// lockRecord is the value stored in the lock column.
type lockRecord struct {
	Primary  string
	StartTS  uint64
	Deadline int64 // UnixNano after which the lock is considered dead
}

func encodeLock(l lockRecord) []byte {
	b := make([]byte, 8+8+len(l.Primary))
	binary.BigEndian.PutUint64(b[:8], l.StartTS)
	binary.BigEndian.PutUint64(b[8:16], uint64(l.Deadline))
	copy(b[16:], l.Primary)
	return b
}

func decodeLock(b []byte) (lockRecord, error) {
	if len(b) < 16 {
		return lockRecord{}, fmt.Errorf("percolator: bad lock record")
	}
	return lockRecord{
		StartTS:  binary.BigEndian.Uint64(b[:8]),
		Deadline: int64(binary.BigEndian.Uint64(b[8:16])),
		Primary:  string(b[16:]),
	}, nil
}

// writeRecord is the value stored in the write column: the start timestamp
// of the transaction whose data version it exposes.
func encodeWrite(startTS uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], startTS)
	return b[:]
}

func decodeWrite(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("percolator: bad write record")
	}
	return binary.BigEndian.Uint64(b), nil
}

// Begin starts a transaction.
func (c *Client) Begin() (*Txn, error) {
	ts, err := c.tso.Next()
	if err != nil {
		return nil, err
	}
	return &Txn{client: c, startTS: ts, writes: make(map[string][]byte)}, nil
}
