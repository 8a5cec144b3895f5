package netsrv

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/oracle"
	"repro/internal/tso"
)

// benchServer starts a server over an in-memory oracle, configured by the
// optional functions before it listens, and returns a connected client.
// Closers are registered on b.
func benchServer(b *testing.B, configure ...func(*Server)) (*Client, *oracle.StatusOracle) {
	b.Helper()
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, TSO: tso.New(0, nil)})
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(so)
	srv.Logf = nil
	for _, f := range configure {
		f(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	return c, so
}

// BenchmarkCommitRoundTrip measures one opCommitBatch wire round trip per
// benchmark op (batch of `size` transactions, ~10 written + 10 read rows
// each; size 1 is Client.Commit). -benchmem exposes the end-to-end allocation cost of the commit
// path: client encode, server decode, oracle decision, response encode and
// client decode. Per-transaction cost is ns/op ÷ size.
func BenchmarkCommitRoundTrip(b *testing.B) {
	for _, size := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			c, _ := benchServer(b)
			rng := rand.New(rand.NewSource(1))
			reqs := make([]oracle.CommitRequest, size)
			for i := range reqs {
				reqs[i].WriteSet = make([]oracle.RowID, 10)
				reqs[i].ReadSet = make([]oracle.RowID, 10)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := range reqs {
					ts, err := c.Begin()
					if err != nil {
						b.Fatal(err)
					}
					reqs[i].StartTS = ts
					for j := 0; j < 10; j++ {
						reqs[i].WriteSet[j] = oracle.RowID(rng.Int63n(20_000_000))
						reqs[i].ReadSet[j] = oracle.RowID(rng.Int63n(20_000_000))
					}
				}
				if size == 1 {
					if _, err := c.Commit(reqs[0]); err != nil {
						b.Fatal(err)
					}
				} else if _, err := c.CommitBatch(reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryRoundTrip measures one opQueryBatch wire round trip per
// benchmark op (batch of `size` status lookups against a seeded commit
// table; size 1 is Client.Query).
func BenchmarkQueryRoundTrip(b *testing.B) {
	for _, size := range []int{1, 64} {
		b.Run(fmt.Sprintf("batch-%d", size), func(b *testing.B) {
			c, so := benchServer(b)
			const seeded = 1024
			starts := make([]uint64, seeded)
			seedReqs := make([]oracle.CommitRequest, seeded)
			for i := range seedReqs {
				ts, err := so.Begin()
				if err != nil {
					b.Fatal(err)
				}
				starts[i] = ts
				seedReqs[i] = oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(i)}}
			}
			if _, err := so.CommitBatch(seedReqs); err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			tss := make([]uint64, size)
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := range tss {
					tss[i] = starts[rng.Intn(seeded)]
				}
				if size == 1 {
					c.Query(tss[0])
				} else {
					c.QueryBatch(tss)
				}
			}
		})
	}
}

// BenchmarkSessionRoundTrip measures one enveloped Begin round trip with many
// sessions sharing one connection, each waiting for its own reply: the shape
// in which both ends' writers batch frames. -benchmem shows what a request
// costs both ends together once every pool is warm.
func BenchmarkSessionRoundTrip(b *testing.B) {
	c, _ := benchServer(b)
	mux := &Mux{clients: []*Client{c}}
	b.SetParallelism(32) // sessions per processor
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := mux.Session(0)
		for pb.Next() {
			if _, err := s.Begin(); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkSessionCommitRoundTrip measures one blind-write transaction's
// oracle traffic — an enveloped Begin and an enveloped one-request Commit —
// with many sessions sharing one connection to a coalescing server with
// admission on: the shape of a durable blind-write workload over sessions,
// without the log. -benchmem shows what it costs both ends together.
func BenchmarkSessionCommitRoundTrip(b *testing.B) {
	c, _ := benchServer(b, func(s *Server) {
		s.CoalesceMaxBatch = 64
		s.Ingress = &IngressConfig{Tenants: 1}
	})
	mux := &Mux{clients: []*Client{c}}
	var rows atomic.Int64
	b.SetParallelism(32) // sessions per processor
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := mux.Session(0)
		req := oracle.CommitRequest{WriteSet: make([]oracle.RowID, 4)}
		for pb.Next() {
			ts, err := s.Begin()
			if err != nil {
				b.Error(err)
				return
			}
			req.StartTS = ts
			for i := range req.WriteSet {
				req.WriteSet[i] = oracle.RowID(rows.Add(1))
			}
			if _, err := s.Commit(req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
