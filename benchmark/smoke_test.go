package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smokeConfig shrinks a run to a fraction of a second per phase on reduced
// row counts: enough to exercise every code path and every metric, not to
// measure anything.
func smokeConfig(spec *workloadSpec, trace bool) runConfig {
	cfg := newRunConfig(spec, 1, 2, trace)
	cfg.pool = 1 << 12
	if cfg.rows > 20_000 && spec.name != "write-durable" {
		cfg.rows = 20_000
	}
	cfg.setups, cfg.setupFor = 1, 0
	cfg.warmup = 40 * time.Millisecond
	cfg.closedDur, cfg.openDur = 100*time.Millisecond, 100*time.Millisecond
	cfg.slice = 50 * time.Millisecond // a traced pass: two traced and two untraced slices
	cfg.openLead, cfg.lateDur = 20*time.Millisecond, 100*time.Millisecond
	cfg.driverDur = 10 * time.Millisecond
	return cfg
}

func TestSmoke(t *testing.T) {
	runtime.GOMAXPROCS(maxProcs)
	for i := range workloads {
		spec := &workloads[i]
		for _, trace := range []bool{false, true} {
			res, err := run(smokeConfig(spec, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", spec.name, trace, err)
			}
			if res.failed != 0 || res.attempted < 1 {
				t.Errorf("%s trace=%v: attempted=%d failed=%d: %v", spec.name, trace, res.attempted, res.failed, res.problems)
			}
			for _, name := range []string{"failed_frac", "audit.lost_acked", "audit.anomalies"} {
				if v := res.values[name]; v != 0 {
					t.Errorf("%s trace=%v: %s = %v, want 0", spec.name, trace, name, v)
				}
			}
			for _, d := range metricsFor(trace) {
				v, ok := res.values[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s trace=%v: %s = %v (present=%v), want a finite value", spec.name, trace, d.name, v, ok)
				}
				if d.unit == "" {
					t.Errorf("%s carries no unit", d.name)
				}
				// slo_ok_frac may read 0 here: under the race detector nothing
				// meets a limit frozen for an uninstrumented build.
				if !trace && v <= 0 && d.name != "slo_ok_frac" {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", spec.name, d.name, v)
				}
			}
			if !trace {
				continue
			}
			// The bypass predictions: a layer a workload does not
			// touch reports zero for every one of its metrics.
			bypassed := map[string][]string{
				"embedded-complex": {"netsrv.", "wal.", "partition."},
				"cross-partition":  {"txn.", "kvstore.", "netsrv."},
				"write-durable":    {"partition."},
				"mixed-zipf":       {"partition."},
			}[spec.name]
			used := map[string][]string{
				"write-durable":    {"netsrv.commit_rtt_us_p50", "wal.bytes_per_txn", "txn.commit_us_mean", "kvstore.put_ns"},
				"mixed-zipf":       {"netsrv.query_rtt_us_p50", "txn.read_us_mean", "txn.lookups_per_row_read", "kvstore.multiget_ns_per_key"},
				"embedded-complex": {"txn.read_us_mean", "kvstore.put_ns", "oracle.commit_batch_ns_per_txn"},
				"cross-partition":  {"partition.commit_call_us_p50", "partition.prepares_per_txn", "wal.bytes_per_txn"},
			}[spec.name]
			for _, d := range perLayerMetrics {
				for _, prefix := range bypassed {
					if strings.HasPrefix(d.name, prefix) && res.values[d.name] != 0 {
						t.Errorf("%s bypasses %s yet %s = %v", spec.name, prefix, d.name, res.values[d.name])
					}
				}
			}
			for _, name := range used {
				if res.values[name] <= 0 {
					t.Errorf("%s exercises %s yet it reads %v", spec.name, name, res.values[name])
				}
			}
		}
	}
}

// TestBenchmarkFile checks that BENCHMARK.json and the code name the same
// workloads and metrics, in the same order, with the same units.
func TestBenchmarkFile(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var f struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json says %+v, the code %+v", kind, i, m, want[i])
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %s: bound present=%v, want %v", kind, m.Name, m.Bound != nil, bounded)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEndMetrics, true)
	check("per_layer", f.PerLayer, perLayerMetrics, false)
}
