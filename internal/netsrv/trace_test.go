package netsrv

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/oracle"
	"repro/internal/tso"
	"repro/internal/wal"
)

// startTraceServer builds a WAL-backed server with admission enabled — the
// full production shape — so every stage of the span lifecycle is live.
func startTraceServer(t *testing.T, tune func(*Server)) (*Server, *Client) {
	t.Helper()
	w, err := wal.NewWriter(wal.Config{}, wal.NewMemLedger())
	if err != nil {
		t.Fatal(err)
	}
	so, err := oracle.New(oracle.Config{Engine: oracle.WSI, WAL: w, TSO: tso.New(0, w)})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(so)
	srv.Logf = nil
	srv.Ingress = &IngressConfig{Tenants: 2}
	if tune != nil {
		tune(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

func sampleByName(samples []metrics.Sample, name string) (metrics.Sample, bool) {
	for _, s := range samples {
		if s.Name == name {
			return s, true
		}
	}
	return metrics.Sample{}, false
}

// TestTracePopulatesStageHistograms drives real commits and queries through
// the wire and asserts the per-stage, per-op-class histograms fill in — both
// via the in-process Registry and via the opMetrics wire call.
func TestTracePopulatesStageHistograms(t *testing.T) {
	_, c := startTraceServer(t, nil)
	const n = 32
	for i := 0; i < n; i++ {
		ts, err := c.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{oracle.RowID(i)}}); err != nil {
			t.Fatal(err)
		}
		c.Query(ts)
	}

	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		`netsrv_stage_total_ns{op="commit"}`,
		`netsrv_stage_wal_durable_ns{op="commit"}`,
		`netsrv_stage_decide_ns{op="commit"}`,
		`netsrv_stage_flush_ns{op="commit"}`,
		`netsrv_stage_total_ns{op="query"}`,
		`netsrv_stage_decide_ns{op="query"}`,
	} {
		s, ok := sampleByName(samples, name)
		if !ok {
			t.Errorf("opMetrics missing %s", name)
			continue
		}
		if s.Kind != metrics.KindHistogram || s.Hist.Count == 0 {
			t.Errorf("%s: kind=%d count=%d, want populated histogram", name, s.Kind, s.Hist.Count)
		}
		if s.Hist.P99 <= 0 || s.Hist.Max < s.Hist.P99 {
			t.Errorf("%s: implausible summary %+v", name, s.Hist)
		}
	}
	// Commit total latency must cover the WAL stage it contains.
	tot, _ := sampleByName(samples, `netsrv_stage_total_ns{op="commit"}`)
	wal, _ := sampleByName(samples, `netsrv_stage_wal_durable_ns{op="commit"}`)
	if tot.Hist.Max < wal.Hist.Max {
		t.Errorf("commit total max %d < wal stage max %d", tot.Hist.Max, wal.Hist.Max)
	}
	// Per-tenant ingress counters ride the same plane (bare conns = tenant 0).
	adm, ok := sampleByName(samples, `netsrv_ingress_admitted_total{tenant="0"}`)
	if !ok || adm.Value == 0 {
		t.Errorf("per-tenant admitted counter absent or zero: %+v", adm)
	}
	// Oracle counters are registered on the same registry.
	if s, ok := sampleByName(samples, "oracle_commits_total"); !ok || s.Value == 0 {
		t.Errorf("oracle_commits_total absent or zero over opMetrics")
	}
}

// TestTraceDisabled checks the kill switch: with DisableTracing set, the
// stage histograms stay empty but requests (and per-tenant counters) work.
func TestTraceDisabled(t *testing.T) {
	_, c2 := startTraceServer(t, func(s *Server) { s.DisableTracing = true })

	ts, err := c2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{99}}); err != nil {
		t.Fatal(err)
	}
	samples, err := c2.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := sampleByName(samples, `netsrv_stage_total_ns{op="commit"}`); ok && s.Hist.Count != 0 {
		t.Errorf("stage histogram populated with tracing disabled: %+v", s.Hist)
	}
	if s, ok := sampleByName(samples, `netsrv_ingress_admitted_total{tenant="0"}`); !ok || s.Value == 0 {
		t.Errorf("per-tenant counters must survive tracing kill switch: %+v", s)
	}
}

// TestSlowRequestLog sets a 1ns threshold so every request is "slow" and
// asserts the sampled exemplar line carries the stage timings.
func TestSlowRequestLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	_, c := startTraceServer(t, func(s *Server) {
		s.SlowThreshold = time.Nanosecond
		s.TraceSample = 1
		s.Logf = func(format string, args ...interface{}) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
	})
	ts, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{7}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		var found string
		for _, l := range lines {
			if strings.Contains(l, "slow request op=commit") {
				found = l
			}
		}
		mu.Unlock()
		if found != "" {
			for _, part := range []string{"tenant=0", "total=", "wal=", "apply=", "flush="} {
				if !strings.Contains(found, part) {
					t.Fatalf("slow log line missing %q: %s", part, found)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no slow-request log line emitted; got %d lines", len(lines))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMetricsWireStableUnderGrowth pins the acceptance bar for "adding a
// metric requires no wire change": opMetrics round-trips a non-trivial,
// multi-source registry through the real framing, sorted and intact. The
// unknown-kind/widened-value skipping itself is covered in the metrics
// package wire tests.
func TestMetricsWireStableUnderGrowth(t *testing.T) {
	_, c := startTraceServer(t, nil)
	ts, _ := c.Begin()
	if _, err := c.Commit(oracle.CommitRequest{StartTS: ts, WriteSet: []oracle.RowID{1}}); err != nil {
		t.Fatal(err)
	}
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 20 {
		t.Fatalf("expected a rich registry over the wire, got %d samples", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Name < samples[i-1].Name {
			t.Fatalf("samples not sorted: %q after %q", samples[i].Name, samples[i-1].Name)
		}
	}
}
