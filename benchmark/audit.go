package main

import (
	"fmt"
	"time"

	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// auditReport is the post-run correctness check's findings.
type auditReport struct {
	checked    int64
	mismatched int64 // acknowledged commits the live system no longer answers as acknowledged
	lostAcked  int64 // acknowledged commits a recovery from one replica's bytes does not know
	anomalies  int64 // isolation anomalies the streaming checker saw (WSI admits none)
	dirtyReads int64 // the checker's dirty-read reports, which a client-side tap cannot ground
	replayed   int64
	recoveryNS int64
	tsoRecords int64
	problems   []string
}

// checkpoint writes a checkpoint into every durable oracle's log, between
// the closed and the open phase, so the recovery audit exercises the
// bounded path: load the checkpoint, replay only the suffix. Returns the
// time the checkpoints took, in milliseconds.
func checkpoint(s *system) (float64, error) {
	if len(s.stacks) == 0 {
		return 0, nil
	}
	t0 := time.Now()
	for i, so := range s.oracles {
		if err := so.Checkpoint(); err != nil {
			return 0, fmt.Errorf("checkpoint of oracle %d: %w", i, err)
		}
	}
	return float64(time.Since(t0)) / 1e6, nil
}

const auditChunk = 4096

// countUnacknowledged asks query for every ack's status and counts those
// not answered as committed at the acknowledged timestamp.
func countUnacknowledged(acks []ack, query func([]uint64) []oracle.TxnStatus) int64 {
	var bad int64
	starts := make([]uint64, 0, auditChunk)
	for lo := 0; lo < len(acks); lo += auditChunk {
		hi := lo + auditChunk
		if hi > len(acks) {
			hi = len(acks)
		}
		starts = starts[:0]
		for _, a := range acks[lo:hi] {
			starts = append(starts, a.start)
		}
		for i, st := range query(starts) {
			if st.Status != oracle.StatusCommitted || st.CommitTS != acks[lo+i].commit {
				bad++
			}
		}
	}
	return bad
}

// replicaBytes copies what one ledger replica holds into a fresh ledger:
// recovery may use nothing but these bytes.
func replicaBytes(l wal.Ledger) (*wal.MemLedger, error) {
	n, err := l.NumBatches()
	if err != nil {
		return nil, err
	}
	out := wal.NewMemLedger()
	for i := 0; i < n; i++ {
		b, err := l.ReadBatch(i)
		if err != nil {
			return nil, err
		}
		if _, err := out.AppendBatch(b); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// audit checks the run's outputs: every acknowledged write commit must
// answer Query as committed with the acknowledged timestamp; on durable
// workloads a recovery from a single replica's bytes must know every one
// of them too; and a tapped history must show no anomaly.
func audit(s *system, acks []ack) (*auditReport, error) {
	r := &auditReport{checked: int64(len(acks))}
	if r.mismatched = countUnacknowledged(acks, s.query); r.mismatched > 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d of %d acknowledged commits do not answer Query as acknowledged", r.mismatched, r.checked))
	}

	if len(s.stacks) > 0 {
		recovered := make([]*oracle.StatusOracle, len(s.oracles))
		for i := range s.oracles {
			s.stacks[i].w.Flush()
			replica, err := replicaBytes(s.stacks[i].ledgers[0])
			if err != nil {
				return nil, fmt.Errorf("read replica 0 of log %d: %w", i, err)
			}
			if err := wal.Replay(replica, func(e []byte) error {
				if _, ok := tso.DecodeRecord(e); ok {
					r.tsoRecords++
				}
				return nil
			}); err != nil {
				return nil, fmt.Errorf("scan replica 0 of log %d: %w", i, err)
			}
			so, _, err := oracle.RecoverState(oracle.Config{Engine: oracle.WSI}, replica, nil, tsoBlock)
			if err != nil {
				return nil, fmt.Errorf("recover from replica 0 of log %d: %w", i, err)
			}
			st := so.Stats()
			r.replayed += st.ReplayedRecords
			r.recoveryNS += st.RecoveryNanos
			recovered[i] = so
		}
		// A partitioned commit is known once any covering partition
		// publishes it, the rule the coordinator's own Query applies.
		r.lostAcked = countUnacknowledged(acks, func(starts []uint64) []oracle.TxnStatus {
			out := recovered[0].QueryBatch(starts)
			for _, so := range recovered[1:] {
				for i, st := range so.QueryBatch(starts) {
					if st.Status == oracle.StatusCommitted {
						out[i] = st
					}
				}
			}
			return out
		})
		if r.lostAcked > 0 {
			r.problems = append(r.problems, fmt.Sprintf("lost_acked=%d: recovery from one replica lost acknowledged commits", r.lostAcked))
		}
	}

	if s.checker != nil {
		s.stopChecker() // final drain of the tap
		c := s.checker.Counts()
		// A dirty-read report means "the read's event reached the checker
		// before its writer's commit event". A client records its commit
		// event only after the acknowledgement arrives, and a concurrent
		// reader may see the commit, and record its read, before that; so
		// on a client-side tap with concurrent clients the report does not
		// show a dirty read, and it is counted apart.
		r.dirtyReads = c.DirtyRead
		r.anomalies = c.WriteSkew + c.LostUpdate + c.FuzzyRead + c.SnapViolation + c.NonMonotone + c.DoubleDecide
		if r.anomalies > 0 {
			r.problems = append(r.problems, fmt.Sprintf("streaming checker saw %d anomalies under WSI: %+v", r.anomalies, c))
		}
		if c.Txns == 0 {
			r.problems = append(r.problems, "streaming checker saw no transactions: the history tap is not sampling")
		}
	}
	return r, nil
}
