package workload

import "math/rand"

// CrossMix generates the partition-aware transaction mix of the
// cross-partition benchmark: the row space [0, Rows) is carved into Partitions contiguous
// slices (matching an even range router over dense row indexes), each
// transaction draws its rows inside one home slice, and a dialable
// CrossFraction of write transactions additionally spread their writes
// over a second slice — so the write set spans ≥ 2 key slices and the
// commit must take the coordinator's two-phase path. The knob dials the
// contention topology: 0 makes every commit single-partition (pure
// scale-out), 1 makes every write transaction pay the prepare/decide
// round.
type CrossMix struct {
	cfg        MixConfig
	partitions int
	cross      float64
	rows       int64
}

// NewCrossMix builds a cross-partition mix. partitions <= 1 or
// crossFraction <= 0 degenerates to a slice-local mix.
func NewCrossMix(cfg MixConfig, partitions int, crossFraction float64, rows int64) *CrossMix {
	if cfg.MaxRows <= 0 {
		cfg.MaxRows = 20
	}
	if partitions <= 0 {
		partitions = 1
	}
	if rows < int64(partitions) {
		rows = int64(partitions)
	}
	return &CrossMix{cfg: cfg, partitions: partitions, cross: crossFraction, rows: rows}
}

// sliceRow draws a uniform row from slice p.
func (m *CrossMix) sliceRow(r *rand.Rand, p int) int64 {
	per := m.rows / int64(m.partitions)
	lo := int64(p) * per
	hi := lo + per
	if p == m.partitions-1 {
		hi = m.rows
	}
	return lo + r.Int63n(hi-lo)
}

// Next generates one transaction.
func (m *CrossMix) Next(r *rand.Rand) Txn {
	kind := TxnComplex
	if r.Float64() < m.cfg.ReadOnlyFraction {
		kind = TxnReadOnly
	}
	home := r.Intn(m.partitions)
	n := r.Intn(m.cfg.MaxRows + 1)
	ops := make([]Op, 0, n+2)
	for i := 0; i < n; i++ {
		op := Op{Kind: OpRead, Row: m.sliceRow(r, home)}
		if kind == TxnComplex && r.Float64() < m.cfg.WriteFraction {
			op.Kind = OpWrite
		}
		ops = append(ops, op)
	}
	if kind == TxnComplex && m.partitions > 1 && r.Float64() < m.cross {
		// Force the write set across a second slice: one write in the
		// home slice, one in another, regardless of how the dice fell
		// above — a "cross" transaction must actually cross.
		other := (home + 1 + r.Intn(m.partitions-1)) % m.partitions
		ops = append(ops,
			Op{Kind: OpWrite, Row: m.sliceRow(r, home)},
			Op{Kind: OpWrite, Row: m.sliceRow(r, other)})
	}
	return Txn{Kind: kind, Ops: ops}
}
