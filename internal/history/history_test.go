package history

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/oracle"
)

func TestParseRoundTrip(t *testing.T) {
	in := "r1[x] w2[yy] c1 a2"
	h, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if h.String() != in {
		t.Fatalf("round trip: %q -> %q", in, h.String())
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"q1[x]",          // unknown op
		"r[x]",           // missing txn id
		"rk[x]",          // non-numeric id
		"r1[]",           // empty item
		"r1[x",           // unterminated item
		"c",              // bare commit
		"cx",             // non-numeric commit
		"r1[x] c1 w1[y]", // op after commit
		"c1 c1",          // double commit
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) accepted", s)
		}
	}
}

func TestValidateAbortThenOp(t *testing.T) {
	if _, err := Parse("w1[x] a1 r1[x]"); err == nil {
		t.Fatal("operation after abort accepted")
	}
}

func TestTxnsOrder(t *testing.T) {
	h := MustParse("r2[x] r1[y] w2[x] c2 c1")
	ids := h.Txns()
	if len(ids) != 2 || ids[0] != 2 || ids[1] != 1 {
		t.Fatalf("Txns = %v", ids)
	}
}

func TestIsSerial(t *testing.T) {
	cases := []struct {
		h      string
		serial bool
	}{
		{"r1[x] w1[y] c1 r2[z] c2", true},
		{"r1[x] r2[z] c1 c2", false},
		{"r1[x] c1 r2[z] w2[x] c2 r3[a] c3", true},
		{"r1[x] c1 r2[z] r1[y]", false}, // txn1 resumes — but Parse rejects ops after commit
	}
	for _, tc := range cases[:3] {
		h := MustParse(tc.h)
		if got := h.IsSerial(); got != tc.serial {
			t.Errorf("IsSerial(%q) = %v, want %v", tc.h, got, tc.serial)
		}
	}
}

func TestSemanticsReadsFrom(t *testing.T) {
	// txn2 commits before txn3 starts; txn3 must read txn2's write.
	h := MustParse("w2[x] c2 r3[x] c3")
	s := Evaluate(h)
	w, ok := s.ReadsFrom(2)
	if !ok || w != 2 {
		t.Fatalf("ReadsFrom = %d,%v want 2,true", w, ok)
	}
}

func TestSemanticsSnapshotIgnoresLaterCommits(t *testing.T) {
	// txn3 starts before txn2 commits: reads the initial version.
	h := MustParse("r3[y] w2[x] c2 r3[x] c3")
	s := Evaluate(h)
	w, ok := s.ReadsFrom(3)
	if !ok || w != 0 {
		t.Fatalf("ReadsFrom = %d,%v want 0 (initial)", w, ok)
	}
}

func TestSemanticsOwnWrites(t *testing.T) {
	h := MustParse("w1[x] r1[x] c1")
	s := Evaluate(h)
	if w, _ := s.ReadsFrom(1); w != 1 {
		t.Fatalf("own write not observed: reads from %d", w)
	}
}

func TestSemanticsAbortedInstallNothing(t *testing.T) {
	h := MustParse("w1[x] a1 r2[x] c2")
	s := Evaluate(h)
	if w, _ := s.ReadsFrom(2); w != 0 {
		t.Fatalf("aborted writer visible: %d", w)
	}
	if len(s.VersionOrder("x")) != 0 {
		t.Fatal("aborted writer installed a version")
	}
}

func TestVersionOrderByCommit(t *testing.T) {
	// txn2 writes first but commits second.
	h := MustParse("w2[x] w1[x] c1 c2")
	s := Evaluate(h)
	vo := s.VersionOrder("x")
	if len(vo) != 2 || vo[0] != 1 || vo[1] != 2 {
		t.Fatalf("version order = %v, want [1 2]", vo)
	}
	if s.FinalWriter("x") != 2 {
		t.Fatalf("final writer = %d", s.FinalWriter("x"))
	}
}

func TestGraphEdges(t *testing.T) {
	g := BuildGraph(h1) // r1[x] r2[y] w1[y] w2[x] c1 c2
	// Expect rw edges in both directions: 1 reads x (init) next writer 2;
	// 2 reads y (init) next writer 1.
	var rw12, rw21 bool
	for _, e := range g.Edges {
		if e.Kind == EdgeRW && e.From == 1 && e.To == 2 {
			rw12 = true
		}
		if e.Kind == EdgeRW && e.From == 2 && e.To == 1 {
			rw21 = true
		}
	}
	if !rw12 || !rw21 {
		t.Fatalf("missing rw edges in H1 graph: %v", g.Edges)
	}
	if g.FindCycle() == nil {
		t.Fatal("H1's graph must be cyclic")
	}
	if _, ok := g.SerialOrder(); ok {
		t.Fatal("cyclic graph produced a serial order")
	}
}

func TestGraphWrEdge(t *testing.T) {
	h := MustParse("w1[x] c1 r2[x] w2[y] c2")
	g := BuildGraph(h)
	found := false
	for _, e := range g.Edges {
		if e.Kind == EdgeWR && e.From == 1 && e.To == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("wr edge missing: %v", g.Edges)
	}
}

func TestSerialWitnessIsEquivalent(t *testing.T) {
	hs := []History{h4, h5, h6, h7, MustParse("w1[x] c1 r2[x] w2[y] c2")}
	for _, h := range hs {
		w, ok := SerialWitness(h)
		if !ok {
			t.Fatalf("%q: no witness", h)
		}
		if !w.IsSerial() {
			t.Fatalf("%q: witness %q not serial", h, w)
		}
		if !Equivalent(h, w) {
			t.Fatalf("%q: witness %q not equivalent", h, w)
		}
	}
}

// randomHistory builds a structurally valid random history.
func randomHistory(rng *rand.Rand, txns, items, ops int) History {
	var h History
	open := map[int]bool{}
	for i := 1; i <= txns; i++ {
		open[i] = true
	}
	for len(h) < ops && len(open) > 0 {
		// Pick an open transaction.
		var ids []int
		for id := range open {
			ids = append(ids, id)
		}
		id := ids[rng.Intn(len(ids))]
		item := string(rune('a' + rng.Intn(items)))
		switch rng.Intn(6) {
		case 0, 1, 2:
			h = append(h, Op{Type: OpRead, Txn: id, Item: item})
		case 3, 4:
			h = append(h, Op{Type: OpWrite, Txn: id, Item: item})
		default:
			h = append(h, Op{Type: OpCommit, Txn: id})
			delete(open, id)
		}
	}
	// Commit the remainder (sorted for determinism).
	var rest []int
	for id := range open {
		rest = append(rest, id)
	}
	for i := 0; i < len(rest); i++ {
		for j := i + 1; j < len(rest); j++ {
			if rest[j] < rest[i] {
				rest[i], rest[j] = rest[j], rest[i]
			}
		}
	}
	for _, id := range rest {
		h = append(h, Op{Type: OpCommit, Txn: id})
	}
	return h
}

// TestPropertyWSIAdmitsOnlySerializable is the empirical counterpart of the
// paper's Theorem 1: any random history the WSI oracle admits must have an
// acyclic serialization graph.
func TestPropertyWSIAdmitsOnlySerializable(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, 2+rng.Intn(4), 2+rng.Intn(3), 10+rng.Intn(20))
		v, err := Admit(h, oracle.WSI)
		if err != nil {
			return false
		}
		if !v.Admitted {
			return true // rejection is always allowed
		}
		if !Serializable(h) {
			t.Logf("WSI admitted non-serializable history: %s", h)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySIAdmitsWriteSkew documents that SI's guarantee is strictly
// weaker: across random histories SI admits at least one non-serializable
// history (otherwise our generator would be vacuous).
func TestPropertySIAdmitsNonSerializable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	foundBad := false
	for i := 0; i < 2000 && !foundBad; i++ {
		h := randomHistory(rng, 3, 3, 16)
		v, err := Admit(h, oracle.SI)
		if err != nil {
			t.Fatal(err)
		}
		if v.Admitted && !Serializable(h) {
			foundBad = true
		}
	}
	if !foundBad {
		t.Fatal("SI admitted no non-serializable history in 2000 trials — generator too weak?")
	}
}

// TestPropertySnapshotReadsPreventANSIAnomalies: §3.2 — dirty and fuzzy
// reads cannot occur under snapshot reads regardless of conflict detection.
func TestPropertySnapshotReadsPreventANSIAnomalies(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, 2+rng.Intn(4), 2+rng.Intn(3), 10+rng.Intn(25))
		return !HasDirtyRead(h) && !HasFuzzyRead(h)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyAdmitMonotone: removing the last transaction's commit (making
// it never commit) can only make a history easier to admit.
func TestPropertyAdmitPrefixClosed(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := randomHistory(rng, 3, 3, 14)
		v, err := Admit(h, oracle.WSI)
		if err != nil || !v.Admitted {
			return true
		}
		// Every prefix that ends at a commit boundary is also
		// admissible (the oracle saw exactly that prefix already).
		for i := range h {
			if h[i].Type != OpCommit {
				continue
			}
			prefix := append(History(nil), h[:i+1]...)
			pv, err := Admit(prefix, oracle.WSI)
			if err != nil || !pv.Admitted {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEquivalentRejectsDifferentOutcomes(t *testing.T) {
	a := MustParse("w1[x] c1 w2[x] c2") // final writer 2
	b := MustParse("w2[x] c2 w1[x] c1") // final writer 1
	if Equivalent(a, b) {
		t.Fatal("different final writers judged equivalent")
	}
}

func TestEquivalentRejectsDifferentCommittedSets(t *testing.T) {
	a := MustParse("w1[x] c1 w2[y] c2")
	b := MustParse("w1[x] c1 w2[y] a2")
	if Equivalent(a, b) {
		t.Fatal("different committed sets judged equivalent")
	}
}

func TestAdmitWithExplicitAbort(t *testing.T) {
	// An aborted transaction's writes never enter lastCommit, so a
	// would-be conflict vanishes.
	h := MustParse("r1[x] w2[x] a2 w1[y] c1")
	v := MustAdmit(h, oracle.WSI)
	if !v.Admitted {
		t.Fatal("abort should remove the conflicting writer")
	}
}

func TestOpStringUnknown(t *testing.T) {
	op := Op{Type: OpType(9), Txn: 3}
	if !strings.Contains(op.String(), "?") {
		t.Fatalf("unknown op renders %q", op.String())
	}
}

// serializableSink keeps the benchmarked call's result live.
var serializableSink bool

// BenchmarkHistoryChecker measures the serializability checker on random
// histories of four transactions with four operations each.
func BenchmarkHistoryChecker(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	hs := make([]History, 16)
	for i := range hs {
		var sb strings.Builder
		for t := 1; t <= 4; t++ {
			for o := 0; o < 4; o++ {
				item := 'a' + rng.Intn(4)
				kind := "r"
				if rng.Intn(2) == 1 {
					kind = "w"
				}
				fmt.Fprintf(&sb, "%s%d[%c] ", kind, t, item)
			}
		}
		sb.WriteString("c1 c2 c3 c4")
		h, err := Parse(sb.String())
		if err != nil {
			b.Fatal(err)
		}
		hs[i] = h
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serializableSink = Serializable(hs[i%len(hs)])
	}
}
