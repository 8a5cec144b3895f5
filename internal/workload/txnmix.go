package workload

import (
	"fmt"
	"math/rand"
)

// OpKind distinguishes reads from writes inside a generated transaction.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
)

// Op is one operation of a generated transaction.
type Op struct {
	Kind OpKind
	Row  int64 // record index; callers map it to a key
}

// TxnKind is the paper's transaction taxonomy (§6.1).
type TxnKind uint8

// Transaction kinds from §6.1.
const (
	// TxnReadOnly transactions perform only reads.
	TxnReadOnly TxnKind = iota
	// TxnComplex transactions perform 50% reads and 50% writes.
	TxnComplex
)

func (k TxnKind) String() string {
	switch k {
	case TxnReadOnly:
		return "read-only"
	case TxnComplex:
		return "complex"
	default:
		return fmt.Sprintf("TxnKind(%d)", uint8(k))
	}
}

// Txn is a generated transaction: a kind plus its operations.
type Txn struct {
	Kind TxnKind
	Ops  []Op
}

// ReadRows returns the distinct rows read by the transaction.
func (t *Txn) ReadRows() []int64 { return t.rows(OpRead) }

// WriteRows returns the distinct rows written by the transaction.
func (t *Txn) WriteRows() []int64 { return t.rows(OpWrite) }

func (t *Txn) rows(kind OpKind) []int64 {
	seen := make(map[int64]struct{}, len(t.Ops))
	var rows []int64
	for _, op := range t.Ops {
		if op.Kind != kind {
			continue
		}
		if _, ok := seen[op.Row]; ok {
			continue
		}
		seen[op.Row] = struct{}{}
		rows = append(rows, op.Row)
	}
	return rows
}

// MixConfig parameterizes a workload mix. The defaults (§6.1): each
// transaction touches n rows, n uniform in [0, MaxRows]; a complex
// transaction's operations are 50% reads / 50% writes; a mixed workload is
// 50% read-only / 50% complex transactions.
type MixConfig struct {
	// MaxRows is the inclusive upper bound of the per-transaction row
	// count (paper: 20).
	MaxRows int
	// ReadOnlyFraction is the fraction of read-only transactions
	// (mixed workload: 0.5; complex workload: 0).
	ReadOnlyFraction float64
	// WriteFraction is the per-operation write probability inside a
	// complex transaction (paper: 0.5).
	WriteFraction float64
}

// ComplexWorkload returns the §6.1 "complex workload": only complex
// transactions.
func ComplexWorkload() MixConfig {
	return MixConfig{MaxRows: 20, ReadOnlyFraction: 0, WriteFraction: 0.5}
}

// MixedWorkload returns the §6.1 "mixed workload": 50% read-only and 50%
// complex transactions.
func MixedWorkload() MixConfig {
	return MixConfig{MaxRows: 20, ReadOnlyFraction: 0.5, WriteFraction: 0.5}
}

// Mix generates transactions from a key distribution.
type Mix struct {
	cfg MixConfig
	gen Generator
}

// NewMix returns a transaction generator drawing rows from gen.
func NewMix(cfg MixConfig, gen Generator) *Mix {
	if cfg.MaxRows <= 0 {
		cfg.MaxRows = 20
	}
	return &Mix{cfg: cfg, gen: gen}
}

// Next generates one transaction.
func (m *Mix) Next(r *rand.Rand) Txn {
	kind := TxnComplex
	if r.Float64() < m.cfg.ReadOnlyFraction {
		kind = TxnReadOnly
	}
	n := r.Intn(m.cfg.MaxRows + 1)
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op := Op{Kind: OpRead, Row: m.gen.Next(r)}
		if kind == TxnComplex && r.Float64() < m.cfg.WriteFraction {
			op.Kind = OpWrite
		}
		ops = append(ops, op)
	}
	return Txn{Kind: kind, Ops: ops}
}

// Key renders a record index as the fixed-width row key used by the
// store ("user" prefix as in YCSB). Fixed width keeps keys in index order,
// which the range-partitioned store relies on.
func Key(row int64) string {
	return fmt.Sprintf("user%012d", row)
}
