package partition

import (
	"fmt"

	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// LocalConfig parameterizes an in-process partitioned oracle.
type LocalConfig struct {
	// Partitions is the partition count (default 1).
	Partitions int
	// Engine selects the conflict-detection rule for every partition.
	Engine oracle.Engine
	// Router maps rows to partitions (default: hash).
	Router Router
	// MaxRows / MaxCommits / Shards configure each partition's oracle as
	// in oracle.Config. MaxCommits > 0 obliges every txn client of the
	// coordinator to read in txn.ModeWriteBack: an evicted writer answers
	// StatusUnknown, and only a reader whose committers stamped their
	// versions before the ack may read unknown + unstamped as aborted.
	MaxRows    int
	MaxCommits int
	Shards     int
	// WALFor, when non-nil, supplies each partition's WAL writer (index
	// Partitions is the coordinator's decision log). Nil runs without
	// durability.
	WALFor func(i int) *wal.Writer
	// TSOBatch sizes the shared timestamp oracle's reservation blocks.
	TSOBatch int
}

// LocalCluster is an in-process partitioned status oracle: N real oracles
// sharing one timestamp oracle behind a Coordinator. It is the
// configuration the equivalence and chaos tests and the cross-partition
// benchmark run.
type LocalCluster struct {
	Coordinator *Coordinator
	Partitions  []*oracle.StatusOracle
	TSO         *tso.Oracle
}

// NewLocal builds an in-process partitioned oracle. The partitions share
// the returned timestamp oracle, so single-partition transactions use the
// existing CommitBatch fast path with its atomic commit-timestamp
// publication.
func NewLocal(cfg LocalConfig) (*LocalCluster, error) {
	n := cfg.Partitions
	if n <= 0 {
		n = 1
	}
	if cfg.Router == nil {
		cfg.Router = NewHashRouter(n)
	}
	var tsoWAL *wal.Writer
	if cfg.WALFor != nil {
		tsoWAL = cfg.WALFor(0)
	}
	clock := tso.New(cfg.TSOBatch, tsoWAL)
	parts := make([]*oracle.StatusOracle, n)
	backends := make([]Backend, n)
	for i := 0; i < n; i++ {
		ocfg := oracle.Config{
			Engine:     cfg.Engine,
			MaxRows:    cfg.MaxRows,
			MaxCommits: cfg.MaxCommits,
			Shards:     cfg.Shards,
			TSO:        clock,
		}
		if cfg.WALFor != nil {
			ocfg.WAL = cfg.WALFor(i)
		}
		so, err := oracle.New(ocfg)
		if err != nil {
			return nil, fmt.Errorf("partition %d: %w", i, err)
		}
		parts[i] = so
		backends[i] = Local{so}
	}
	var dlog *DecisionLog
	if cfg.WALFor != nil {
		dlog = NewDecisionLog(cfg.WALFor(n))
	}
	co, err := NewCoordinator(Config{
		Engine:      cfg.Engine,
		Router:      cfg.Router,
		Backends:    backends,
		Clock:       TSOClock{clock},
		SharedTSO:   true,
		DecisionLog: dlog,
	})
	if err != nil {
		return nil, err
	}
	return &LocalCluster{Coordinator: co, Partitions: parts, TSO: clock}, nil
}
