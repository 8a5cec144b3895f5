// Command benchmark is the repository's one canonical benchmark: four
// workloads, end-to-end metrics measured with tracing off, and a per-layer
// ledger from a traced run. See README.md beside this file.
//
//	bash benchmark/run.sh --workload write-durable --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh -workload all -json out.json
//	bash benchmark/run.sh -agree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

// measured is one metric as the result line carries it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// runRecord is what -json keeps of one run: the result line plus sample
// counts, the values the mode does not list, and what the audit found.
type runRecord struct {
	Workload   string               `json:"workload"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Trace      bool                 `json:"trace"`
	NProc      int                  `json:"nproc"`
	GoMaxProcs int                  `json:"gomaxprocs"`
	Result     resultLine           `json:"result"`
	Samples    map[string]int64     `json:"samples"`
	Series     map[string][]float64 `json:"series"`
	Observed   map[string]float64   `json:"also_observed"`
	Problems   []string             `json:"problems"`
	Warnings   []string             `json:"warnings"`
}

func record(cfg runConfig, seconds int, res *result) runRecord {
	rec := runRecord{
		Workload: cfg.spec.name, Seed: cfg.seed, Seconds: seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GoMaxProcs: maxProcs,
		Result:  resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]measured{}},
		Samples: res.samples, Series: res.series, Observed: map[string]float64{}, Problems: res.problems, Warnings: res.warnings,
	}
	listed := map[string]bool{}
	for _, d := range metricsFor(cfg.trace) {
		listed[d.name] = true
		rec.Result.Metrics[d.name] = measured{Value: res.values[d.name], Unit: d.unit}
	}
	for name, v := range res.values {
		if !listed[name] {
			rec.Observed[name] = v
		}
	}
	return rec
}

// printTable writes every metric by name with its unit, and the sample
// count behind each percentile, for a person to read.
func printTable(rec runRecord) {
	fmt.Fprintf(os.Stderr, "%s seed=%d seconds=%d trace=%v nproc=%d gomaxprocs=%d\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, rec.NProc, rec.GoMaxProcs)
	for _, d := range metricsFor(rec.Trace) {
		m := rec.Result.Metrics[d.name]
		line := fmt.Sprintf("  %-36s %16.4f %-6s", d.name, m.Value, m.Unit)
		if n, ok := rec.Samples[d.name]; ok {
			line += fmt.Sprintf(" (%d samples)", n)
		}
		fmt.Fprintln(os.Stderr, line)
	}
	for _, d := range append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...) {
		if v, ok := rec.Observed[d.name]; ok {
			fmt.Fprintf(os.Stderr, "  also %-31s %16.4f %-6s\n", d.name, v, d.unit)
		}
	}
	for name, xs := range rec.Series {
		fmt.Fprintf(os.Stderr, "  series %-29s %.4g\n", name, xs)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d correct=%v\n", rec.Result.Attempted, rec.Result.Failed, rec.Result.Correct)
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "  PROBLEM:", p)
	}
	for _, w := range rec.Warnings {
		fmt.Fprintln(os.Stderr, "  WARNING:", w)
	}
}

func writeJSON(path string, v interface{}) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summary is -workload all's output; it ends with the claim, and this
// benchmark claims nothing.
type summary struct {
	NProc      int                  `json:"nproc"`
	GoMaxProcs int                  `json:"gomaxprocs"`
	Seed       int64                `json:"seed"`
	Seconds    int                  `json:"seconds"`
	Workloads  map[string]*wlRecord `json:"workloads"`
	Claim      *string              `json:"claim"`
}

type wlRecord struct {
	EndToEnd runRecord `json:"untraced_run"`
	PerLayer runRecord `json:"traced_run"`
}

// child runs one workload in its own process, as the driver does, and
// returns its record.
func child(dir, workload string, seed int64, seconds int, trace bool) (runRecord, error) {
	var rec runRecord
	self, err := os.Executable()
	if err != nil {
		return rec, err
	}
	t := 0
	if trace {
		t = 1
	}
	out := filepath.Join(dir, fmt.Sprintf("%s-%d.json", workload, t))
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(t), "-json", out)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // a run that fails its audit still leaves its record
	b, err := os.ReadFile(out)
	if err != nil {
		return rec, fmt.Errorf("%s trace=%d: %v (%v)", workload, t, runErr, err)
	}
	return rec, json.Unmarshal(b, &rec)
}

func runAll(seed int64, seconds int) (*summary, bool, error) {
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return nil, false, err
	}
	defer os.RemoveAll(dir)
	sum := &summary{NProc: runtime.NumCPU(), GoMaxProcs: maxProcs, Seed: seed, Seconds: seconds, Workloads: map[string]*wlRecord{}}
	ok := true
	for _, w := range workloads {
		rec := &wlRecord{}
		if rec.EndToEnd, err = child(dir, w.name, seed, seconds, false); err != nil {
			return nil, false, err
		}
		if rec.PerLayer, err = child(dir, w.name, seed, seconds, true); err != nil {
			return nil, false, err
		}
		ok = ok && rec.EndToEnd.Result.Correct && rec.PerLayer.Result.Correct
		sum.Workloads[w.name] = rec
	}
	return sum, ok, nil
}

// benchmarkFile is the part of BENCHMARK.json -agree needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// agree runs the whole benchmark twice back to back and checks that the
// second set is not worse than the first by more than each metric's bound.
func agree(seed int64, seconds int) (bool, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return false, fmt.Errorf("-agree reads the bounds from BENCHMARK.json, run it from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return false, err
	}
	first, ok1, err := runAll(seed, seconds)
	if err != nil {
		return false, err
	}
	second, ok2, err := runAll(seed, seconds)
	if err != nil {
		return false, err
	}
	ok := ok1 && ok2
	// A late generator or a host that took the processors away invalidates
	// the comparison rather than passing silently.
	for _, set := range []*summary{first, second} {
		for _, w := range workloads {
			for _, rec := range []runRecord{set.Workloads[w.name].EndToEnd, set.Workloads[w.name].PerLayer} {
				for _, warning := range rec.Warnings {
					fmt.Printf("%s trace=%v: %s\n", w.name, rec.Trace, warning)
					ok = false
				}
			}
		}
	}
	fmt.Printf("%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, w := range workloads {
		a, b := first.Workloads[w.name].EndToEnd.Result.Metrics, second.Workloads[w.name].EndToEnd.Result.Metrics
		for _, d := range bf.EndToEnd {
			worse := (b[d.Name].Value - a[d.Name].Value) / a[d.Name].Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound || math.IsNaN(worse) {
				verdict, ok = "  OUTSIDE", false
			}
			fmt.Printf("%-18s %-22s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", w.name, d.Name, a[d.Name].Value, b[d.Name].Value, 100*worse, 100*d.Bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	runtime.GOMAXPROCS(maxProcs) // pinned so numbers compare across machines; nproc is recorded
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs (keys, mixes); nothing else depends on it")
	seconds := flag.Int("seconds", 16, "measured seconds: half closed phase, half open phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	jsonOut := flag.String("json", "", "also write the full record (or, with all, the summary) to this file")
	traceOut := flag.String("trace-out", "", "with -trace 1, write the spans to this file, one JSON object per line")
	agreeMode := flag.Bool("agree", false, "run everything twice and check the two sets agree within the bounds of BENCHMARK.json")
	flag.Parse()
	if *seconds < 2 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be at least 2 and -trace 0 or 1")
		os.Exit(2)
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	switch {
	case *agreeMode:
		ok, err := agree(*seed, *seconds)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload == "all":
		sum, ok, err := runAll(*seed, *seconds)
		if err != nil {
			fail(err)
		}
		if *jsonOut != "" {
			err = writeJSON(*jsonOut, sum)
		} else {
			var b []byte
			if b, err = json.MarshalIndent(sum, "", "  "); err == nil {
				fmt.Println(string(b))
			}
		}
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
	default:
		spec := findWorkload(*workload)
		if spec == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		cfg := newRunConfig(spec, *seed, *seconds, *trace == 1)
		cfg.traceOut = *traceOut
		res, err := run(cfg)
		if err != nil {
			fail(err)
		}
		rec := record(cfg, *seconds, res)
		printTable(rec)
		if *jsonOut != "" {
			if err := writeJSON(*jsonOut, rec); err != nil {
				fail(err)
			}
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fail(err)
		}
		fmt.Println(string(line))
		if !res.correct {
			os.Exit(1)
		}
	}
}
