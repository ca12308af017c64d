// Command perfbench is the repository benchmark: it launches the real
// ssrq-server binary over a dataset generated from the seed, drives one
// workload at it with an open-loop load generator, checks sampled replies
// against a BruteForce oracle, and prints every end-to-end metric. With
// -trace 1 it also replays the workload's schedule in-process with spans
// around the calls into each layer's exported API and prints the
// per-layer metrics. See README.md beside this file.
//
//	perfbench -workload read-hot -seed 1 -seconds 20 -trace 0 -server ssrq-server
//	perfbench -compare parent-results -with change-results
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and the metrics BENCHMARK.json declares for the chosen mode.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Report is one run's full result, written as JSON for compare mode.
type Report struct {
	Workload      string    `json:"workload"`
	Seed          int64     `json:"seed"`
	Trace         bool      `json:"trace"`
	Record        RunRecord `json:"record"`
	Metrics       []Metric  `json:"metrics"`
	Attempted     int       `json:"attempted"`
	Failed        int       `json:"failed"`
	OracleChecked int       `json:"oracle_checked"`
	Errors        []string  `json:"errors,omitempty"`
	Notes         []string  `json:"notes,omitempty"`
}

// maxErrors bounds how many failures a report lists (all are counted).
const maxErrors = 20

func (r *Report) add(ms ...Metric) { r.Metrics = append(r.Metrics, ms...) }

func (r *Report) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// failedRatio is (non-2xx + transport errors + oracle mismatches) /
// attempted.
func (r *Report) failedRatio() float64 { return float64(r.Failed) / float64(max(r.Attempted, 1)) }

func (r *Report) metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// RunRecord is the machine and generator context every report carries.
type RunRecord struct {
	Commit      string             `json:"commit"`
	GoVersion   string             `json:"go_version"`
	NumCPU      int                `json:"nproc"`
	CPUModel    string             `json:"cpu_model"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Rates       map[string]float64 `json:"offered_rates_per_s"`
	Conns       int                `json:"connections"`
	LateP99Ms   float64            `json:"late_p99_ms"`
	LateFlagged bool               `json:"late_flagged"`
}

// lateFlagMs is the generator-lateness p99 beyond which a run is flagged:
// its latencies include the generator's own stalls.
const lateFlagMs = 10.0

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: read-hot, write-churn or durable-sharded")
	seed := fs.Int64("seed", 1, "workload seed: dataset, schedule and probes all follow from it")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = also run the traced in-process pass and print per-layer metrics")
	server := fs.String("server", "", "ssrq-server binary")
	work := fs.String("work", ".bench_build/work", "scratch directory (datasets, WALs, server logs)")
	results := fs.String("results", ".bench_build/results", "directory the run's report JSON is written to")
	commit := fs.String("commit", "unknown", "commit under test, for the run record")
	parent := fs.String("compare", "", "compare mode: parent results directory")
	change := fs.String("with", "", "compare mode: change results directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parent != "" {
		if err := compareDirs(stdout, *parent, *change); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w := findWorkload(*name)
	if w == nil || *server == "" || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need -workload (read-hot|write-churn|durable-sharded), -server and -seconds > 0")
		return 2
	}
	if _, err := os.Stat(*server); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep, err := runWorkload(w, *seed, *seconds, *trace == 1, *server, *work, *commit)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, rep)
	if err := saveReport(*results, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := resultLine(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// runWorkload runs one workload end to end, and with trace also the
// traced in-process pass.
func runWorkload(w *workload, seed int64, seconds float64, trace bool, bin, work, commit string) (*Report, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, fmt.Sprintf("%s-%d-", w.name, seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rep := &Report{Workload: w.name, Seed: seed, Trace: trace}
	rep.Record = RunRecord{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds,
	}
	world, err := newWorld(w.preset, w.n, seed, filepath.Join(dir, "data.gob"))
	if err != nil {
		return nil, err
	}
	// A traced run splits its time between the load and the traced pass.
	loadSecs := seconds
	if trace {
		loadSecs = seconds / 2
	}
	r := &runCtx{ctx: context.Background(), seconds: loadSecs, dir: dir, bin: abs(bin), rep: rep,
		rates: map[string]float64{}}
	if err := w.e2e(r, world); err != nil {
		return nil, err
	}
	rep.Record.Rates, rep.Record.Conns = r.rates, r.conns
	late, _ := Percentile(r.lateMs, 0.99)
	rep.Record.LateP99Ms = late
	rep.Record.LateFlagged = late > lateFlagMs
	if rep.Record.LateFlagged {
		rep.Notes = append(rep.Notes, fmt.Sprintf("FLAGGED: generator lateness p99 %.2f ms exceeds %.0f ms; latencies include generator stalls", late, lateFlagMs))
	}
	rep.add(Metric{Name: "failed_ratio", Value: rep.failedRatio(), Unit: "ratio", N: rep.Attempted})
	if trace {
		rep.add(
			Metric{Name: "loadgen.late_p99_ms", Value: late, Unit: "ms", N: len(r.lateMs)},
			Metric{Name: "loadgen.sent", Value: float64(r.sent), Unit: "count"},
			Metric{Name: "loadgen.conns", Value: float64(r.conns), Unit: "count"},
		)
		if err := tracedPass(w, seed, seconds/2, dir, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func abs(p string) string {
	a, err := filepath.Abs(p)
	if err != nil {
		return p
	}
	return a
}

func printReport(w io.Writer, rep *Report) {
	rc := rep.Record
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  commit %s  %s  nproc %d  GOMAXPROCS %d  cpu %q\n",
		rep.Workload, rep.Seed, rep.Trace, rc.Commit, rc.GoVersion, rc.NumCPU, rc.GOMAXPROCS, rc.CPUModel)
	fmt.Fprintf(w, "offered rates %v /s  connections %d  generator late p99 %.3f ms (flagged: %v)\n",
		rc.Rates, rc.Conns, rc.LateP99Ms, rc.LateFlagged)
	for _, m := range rep.Metrics {
		fmt.Fprintln(w, "  "+m.String())
	}
	fmt.Fprintf(w, "attempted %d  failed %d  oracle-checked replies %d\n", rep.Attempted, rep.Failed, rep.OracleChecked)
	for _, n := range rep.Notes {
		fmt.Fprintln(w, "  note: "+n)
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(w, "  FAILED: "+e)
	}
}

func saveReport(dir string, rep *Report) error {
	dir = filepath.Join(dir, rep.Workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	saved := *rep
	saved.Metrics = make([]Metric, len(rep.Metrics))
	for i, m := range rep.Metrics {
		m.Value = finite(m.Value)
		saved.Metrics[i] = m
	}
	b, err := json.MarshalIndent(&saved, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("seed-%d-trace-%v.json", rep.Seed, rep.Trace)), b, 0o644)
}

// finite maps a percentile that landed on failed requests (+Inf) to 1e9,
// which JSON can carry and which misses every latency limit.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 1e9
	}
	return v
}

// resultLine renders the final JSON line: the metrics BENCHMARK.json
// declares for the mode, each of which the run must have produced.
func resultLine(rep *Report) (string, error) {
	names := endToEnd
	if rep.Trace {
		names = perLayer
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, d := range names {
		m, ok := rep.metric(d.Name)
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return "", fmt.Errorf("metric %s measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
		metrics[d.Name] = val{Value: finite(m.Value), Unit: d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{rep.Failed == 0 && rep.OracleChecked > 0, rep.Attempted, rep.Failed, metrics})
	return string(b), err
}
