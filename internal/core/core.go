// Package core is the user-facing facade of the library: it wires together
// the substrates — replicated WAL, timestamp oracle, status oracle,
// multi-version store and the client transaction layer — into a System with
// a Begin/Get/Put/Commit API providing either snapshot isolation or, the
// paper's contribution, serializable write-snapshot isolation.
//
// Quickstart:
//
//	sys, err := core.New(core.Options{Engine: core.WSI})
//	...
//	t, _ := sys.Begin()
//	t.Put("k", []byte("v"))
//	err = t.Commit() // core.IsConflict(err) on a read-write conflict
package core

import (
	"errors"

	"repro/internal/kvstore"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Engine selects the isolation level.
type Engine = oracle.Engine

// Isolation levels.
const (
	// SI is snapshot isolation: write-write conflict detection
	// (Algorithm 1). Not serializable.
	SI = oracle.SI
	// WSI is write-snapshot isolation: read-write conflict detection
	// (Algorithm 2). Serializable (paper Theorem 1).
	WSI = oracle.WSI
)

// Txn re-exports the transaction handle.
type Txn = txn.Txn

// ErrConflict is returned by Txn.Commit when the status oracle aborts the
// transaction.
var ErrConflict = txn.ErrConflict

// IsConflict reports whether err is a conflict abort (as opposed to an
// infrastructure failure).
func IsConflict(err error) bool { return errors.Is(err, txn.ErrConflict) }

// Options configures a System. The zero value is a sensible single-process
// deployment: WSI, an unbounded commit table that readers query for the
// versions nobody has stamped yet.
type Options struct {
	// Engine selects SI or WSI. Default: WSI.
	Engine Engine
	// Durable enables the replicated write-ahead log (Ledgers replicas,
	// quorum of 2) behind the timestamp and status oracles. Recovery
	// from the log is exercised via Crash/Recover in tests.
	Durable bool
	// Ledgers is the WAL replica count when Durable (default 3).
	Ledgers int
	// MaxRows bounds the status oracle's lastCommit memory
	// (Algorithm 3's NR). 0 = unbounded.
	MaxRows int
	// MaxCommits bounds the commit table. 0 = unbounded. It also picks the
	// client's mode: txn.ModeWriteBack when bounded, the only sound reader
	// once the oracle may answer StatusUnknown for an acked commit (§2.2),
	// txn.ModeQuery otherwise.
	MaxCommits int
	// Shards splits the status oracle's critical section (1 = the
	// paper's implementation).
	Shards int
	// Bucketer enables the §5.2 analytics extension.
	Bucketer txn.Bucketer
}

// System is a wired-up transactional store.
type System struct {
	Engine Engine
	TSO    *tso.Oracle
	Oracle *oracle.StatusOracle
	Store  *kvstore.Store
	Client *txn.Client

	walWriter *wal.Writer
	ledgers   []*wal.MemLedger
}

// New builds a System.
func New(opts Options) (*System, error) {
	if opts.Ledgers <= 0 {
		opts.Ledgers = 3
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}

	sys := &System{Engine: opts.Engine}

	var w *wal.Writer
	if opts.Durable {
		for i := 0; i < opts.Ledgers; i++ {
			sys.ledgers = append(sys.ledgers, wal.NewMemLedger())
		}
		ls := make([]wal.Ledger, len(sys.ledgers))
		for i, l := range sys.ledgers {
			ls[i] = l
		}
		var err error
		w, err = wal.NewWriter(wal.Config{Quorum: 2}, ls...)
		if err != nil {
			return nil, err
		}
		sys.walWriter = w
	}

	sys.TSO = tso.New(0, w)
	so, err := oracle.New(oracle.Config{
		Engine:     opts.Engine,
		MaxRows:    opts.MaxRows,
		MaxCommits: opts.MaxCommits,
		Shards:     opts.Shards,
		WAL:        w,
		TSO:        sys.TSO,
	})
	if err != nil {
		return nil, err
	}
	sys.Oracle = so

	sys.Store = kvstore.New(kvstore.Config{})

	sys.Client, err = newClient(sys.Store, so, opts)
	if err != nil {
		return nil, err
	}
	return sys, nil
}

// newClient builds the transaction client New and Recover share. Over a
// bounded commit table the commit-info mode is not a preference: an evicted
// writer answers StatusUnknown, which only a reader whose committers stamped
// every acked write (write-back) may read as aborted; ModeQuery would skip
// an acked commit.
func newClient(store *kvstore.Store, so *oracle.StatusOracle, opts Options) (*txn.Client, error) {
	mode := txn.ModeQuery
	if opts.MaxCommits > 0 {
		mode = txn.ModeWriteBack
	}
	return txn.NewClient(store, so, txn.Config{Mode: mode, Bucketer: opts.Bucketer})
}

// Begin starts a transaction.
func (s *System) Begin() (*Txn, error) { return s.Client.Begin() }

// BeginAt starts a read-only time-travel transaction reading the snapshot
// at the given timestamp (see txn.Client.BeginAt).
func (s *System) BeginAt(ts uint64) *Txn { return s.Client.BeginAt(ts) }

// GC prunes store versions unobservable by this client's live and future
// transactions, returning the number of versions reclaimed.
func (s *System) GC() (int, error) { return s.Client.GC() }

// Stats returns the status oracle's counters.
func (s *System) Stats() oracle.Stats { return s.Oracle.Stats() }

// Ledgers exposes the WAL replicas (recovery tests replay them).
func (s *System) Ledgers() []*wal.MemLedger { return s.ledgers }

// FlushWAL forces out buffered log entries (used before simulated crashes).
func (s *System) FlushWAL() {
	if s.walWriter != nil {
		s.walWriter.Flush()
	}
}

// Close releases background resources (the WAL writer).
func (s *System) Close() {
	if s.walWriter != nil {
		s.walWriter.Close()
	}
}

// Recover builds a fresh System whose oracle state is replayed from one of
// a crashed System's WAL ledgers — the paper's failover story (Appendix A).
// The store is carried over (data servers survive a status-oracle failure).
func Recover(crashed *System, opts Options) (*System, error) {
	if len(crashed.ledgers) == 0 {
		return nil, errors.New("core: crashed system was not durable")
	}
	if opts.Ledgers <= 0 {
		opts.Ledgers = len(crashed.ledgers)
	}
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	ledger := crashed.ledgers[0]

	sys := &System{Engine: opts.Engine, Store: crashed.Store}
	ls := make([]wal.Ledger, len(crashed.ledgers))
	for i, l := range crashed.ledgers {
		ls[i] = l
	}
	w, err := wal.NewWriter(wal.Config{Quorum: 2}, ls...)
	if err != nil {
		return nil, err
	}
	sys.walWriter = w
	sys.TSO, err = tso.Recover(0, ledger, w)
	if err != nil {
		return nil, err
	}
	so, err := oracle.Recover(oracle.Config{
		Engine:     opts.Engine,
		MaxRows:    opts.MaxRows,
		MaxCommits: opts.MaxCommits,
		Shards:     opts.Shards,
		WAL:        w,
		TSO:        sys.TSO,
	}, ledger)
	if err != nil {
		return nil, err
	}
	sys.Oracle = so
	sys.Client, err = newClient(sys.Store, so, opts)
	if err != nil {
		return nil, err
	}
	sys.ledgers = crashed.ledgers
	return sys, nil
}
