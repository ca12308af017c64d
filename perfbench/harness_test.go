package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"ssrq"
)

// A stall must be charged to the requests queued behind it: open-loop
// latency runs from the intended send time, not from when a connection
// got free.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(300 * time.Millisecond)
		}
	}))
	defer srv.Close()
	ops := uniformSchedule(20, 100, 0, func(int) Op {
		return Op{Class: "query", Req: Request{Method: http.MethodGet, Path: "/"}, Want: http.StatusOK}
	})
	out := RunOpenLoop(context.Background(), srv.URL, ops, 1, nil)
	for i := 1; i <= 10; i++ {
		// Op i was due at i·10ms but could only start after the 300ms stall.
		if floor := 300*time.Millisecond - time.Duration(i)*10*time.Millisecond - 20*time.Millisecond; out[i].Latency < floor {
			t.Errorf("op %d latency %v, want ≥ %v: the stall was not charged to it", i, out[i].Latency, floor)
		}
	}
	// The generator itself stayed on schedule.
	if late, _ := Percentile(lateness(out), 0.5); late > 20 {
		t.Errorf("generator median lateness %.1f ms: dispatch waited for the connection", late)
	}
}

func TestPercentileAndSampleCounts(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := Percentile(xs, 0.5); v != 50 || !ok {
		t.Errorf("p50 = %v %v, want 50 true", v, ok)
	}
	if v, ok := Percentile(xs, 0.9); v != 90 || !ok {
		t.Errorf("p90 = %v %v, want 90 true (exactly 10 samples beyond)", v, ok)
	}
	if v, ok := Percentile(xs, 0.99); v != 99 || ok {
		t.Errorf("p99 = %v %v, want 99 refused (1 sample beyond)", v, ok)
	}
	ms := latencyMetrics("query", xs, 0.99)
	if ms[0].N != 100 || ms[1].N != 100 || !ms[1].Refused || ms[0].Refused {
		t.Errorf("latencyMetrics = %+v: want n=100 on both, tail refused, median not", ms)
	}
	// A failed request misses every limit: it sorts beyond all latencies.
	if v, _ := Percentile(append(xs[:9:9], math.Inf(1)), 0.5); v != 5 {
		t.Errorf("p50 with a failure = %v, want 5", v)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := xs[:10]
	if q1, med, q3 := Quartiles(ten); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// failed_ratio counts refusals (non-2xx), transport errors and oracle
// mismatches against everything attempted.
func TestFailedRatioCountsEveryFailureKind(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/refuse":
			http.Error(w, "busy", http.StatusServiceUnavailable)
		case "/drop":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		}
	}))
	defer srv.Close()
	ops := []Op{
		{Req: Request{Method: http.MethodGet, Path: "/ok"}, Want: http.StatusOK},
		{Req: Request{Method: http.MethodGet, Path: "/refuse"}, Want: http.StatusOK},
		{Req: Request{Method: http.MethodGet, Path: "/drop"}, Want: http.StatusOK},
		{Req: Request{Method: http.MethodGet, Path: "/ok"}, Want: http.StatusOK},
	}
	r := &runCtx{ctx: context.Background(), rep: &Report{}}
	r.account(ops, RunOpenLoop(context.Background(), srv.URL, ops, 1, nil))
	if r.rep.Attempted != 4 || r.rep.Failed != 2 {
		t.Fatalf("attempted %d failed %d, want 4 and 2 (one refusal, one transport error)", r.rep.Attempted, r.rep.Failed)
	}

	ds, err := ssrq.NewDataset("tiny", 4, []ssrq.Edge{{U: 0, V: 1, Weight: 1}, {U: 1, V: 2, Weight: 1}, {U: 2, V: 3, Weight: 1}},
		map[ssrq.UserID]ssrq.Point{0: {X: 0, Y: 0}, 1: {X: 1, Y: 0}, 2: {X: 0, Y: 1}, 3: {X: 1, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := ssrq.NewEngine(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	s := qspec{q: 0, k: 2, alpha: 0.5}
	want, err := oracle.Query(ssrq.BruteForce, 0, s.params())
	if err != nil {
		t.Fatal(err)
	}
	good, _ := json.Marshal(map[string]any{"entries": []map[string]any{
		{"id": want.Entries[0].ID, "f": want.Entries[0].F}, {"id": want.Entries[1].ID, "f": want.Entries[1].F}}})
	bad, _ := json.Marshal(map[string]any{"entries": []map[string]any{
		{"id": want.Entries[0].ID, "f": want.Entries[0].F}, {"id": 3, "f": 0.99}}})
	r.verify(oracle, []qspec{s, s}, [][]byte{good, bad}, "test")
	if r.rep.OracleChecked != 2 || r.rep.Failed != 3 || r.rep.Attempted != 5 {
		t.Fatalf("checked %d failed %d attempted %d, want 2, 3, 5", r.rep.OracleChecked, r.rep.Failed, r.rep.Attempted)
	}
	if got := r.rep.failedRatio(); got != 3.0/5 {
		t.Errorf("failed_ratio %v, want 0.6", got)
	}
}

func TestVerdicts(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{5, 15, 8, 12, 6, 14, 9, 11, 7, 13}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higher         bool
		want           string
	}{
		{"faster", base, scale(0.8), false, "improved"},
		{"slower beyond bound", base, scale(1.3), false, "worse"},
		{"same", base, scale(1.001), false, "unchanged"},
		{"slower within bound", base, scale(1.1), false, "unchanged"},
		{"noisy parent", noisy, scale(0.9), false, "unresolved"},
		{"noisy but disjoint", noisy, scale(0.4), false, "improved"},
		{"throughput up", base, scale(1.2), true, "improved"},
	} {
		if got, _ := verdict(c.parent, c.change, 0.25, c.higher); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	tr := &tracer{on: true, epoch: time.Now()}
	tr.spans = []span{{name: "root", start: 0, end: 100, parent: -1}}
	mid := tr.attribute("mid", 0, 0, 60)
	tr.attribute("leaf", mid, 0, 80) // clamped to mid's 60
	tr.spans = append(tr.spans, span{name: "side", start: 70, end: 90, parent: 0})
	self := selfTimes(tr.spans)
	if self[0] != 20 || self[1] != 0 || self[2] != 60 || self[3] != 20 {
		t.Fatalf("self times %v, want [20 0 60 20]", self)
	}
	if worst, n := selfSumError(tr.spans, "root"); worst != 0 || n != 1 {
		t.Errorf("self-sum error %v over %d trees, want 0 over 1", worst, n)
	}
}

// BENCHMARK.json at the repository root must declare exactly the metrics
// this program prints, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []Declared              `json:"end_to_end"`
		PerLayer  []Declared              `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(bj.Workloads), len(workloads))
	}
	for i, wl := range bj.Workloads {
		if i < len(workloads) && wl.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, wl.Name, workloads[i].name)
		}
	}
	same := func(what string, got, want []Declared) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program declares %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
