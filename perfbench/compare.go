package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// defaultBound is the regression bound compare mode applies to an
// end-to-end metric BENCHMARK.json does not gate (the workload-specific
// ones: write_*, bulk_*, delta_*, follower_lag_*, recover_s, ...).
const defaultBound = 0.25

// loadReports reads every untraced report under dir.
func loadReports(dir string) ([]*Report, error) {
	var reps []*Report
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var r Report
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			reps = append(reps, &r)
		}
		return nil
	})
	return reps, err
}

// boundOf returns a metric's regression bound and whether higher is
// better.
func boundOf(name string) (float64, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Bound, d.Better == "higher"
		}
	}
	return defaultBound, strings.HasSuffix(name, "_qps")
}

// Verdict is one compare row.
type Verdict struct {
	Workload, Metric string
	Parent, Change   [3]float64 // q1, median, q3
	Wins, Pairs      int
	Verdict          string
}

// verdict applies the gain/regression rule to paired runs of one metric
// (pairs matched by seed): a gain needs the change to win at least 9/10
// of the pairs (ties count for neither) and a median gap beyond the
// parent's interquartile range; a regression is a median worse than the
// parent's by more than the bound; a parent spread (IQR/median) wider
// than the bound is unresolved unless every change run beats every
// parent run.
func verdict(parent, change []float64, bound float64, higherBetter bool) (string, int) {
	better := func(c, p float64) bool {
		if higherBetter {
			return c > p
		}
		return c < p
	}
	wins := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pq1, pm, pq3 := Quartiles(parent)
	_, cm, _ := Quartiles(change)
	if pm != 0 && (pq3-pq1)/math.Abs(pm) > bound {
		if higherBetter && slices.Min(change) > slices.Max(parent) || !higherBetter && slices.Max(change) < slices.Min(parent) {
			return "improved", wins
		}
		return "unresolved", wins
	}
	worse := cm > pm*(1+bound)
	if higherBetter {
		worse = cm < pm*(1-bound)
	}
	switch {
	case worse:
		return "worse", wins
	case 10*wins >= 9*len(parent) && better(cm, pm) && math.Abs(cm-pm) > pq3-pq1:
		return "improved", wins
	}
	return "unchanged", wins
}

// compareReports pairs parent and change reports by workload and seed and
// returns one verdict per workload × end-to-end metric, failed_ratio
// included.
func compareReports(parent, change []*Report) []Verdict {
	type key struct {
		wl   string
		seed int64
	}
	ch := map[key]*Report{}
	for _, r := range change {
		ch[key{r.Workload, r.Seed}] = r
	}
	type series struct{ p, c []float64 }
	byMetric := map[[2]string]*series{}
	failed := map[string]*[2]int{}
	for _, p := range parent {
		c, ok := ch[key{p.Workload, p.Seed}]
		if !ok {
			continue
		}
		if failed[p.Workload] == nil {
			failed[p.Workload] = &[2]int{}
		}
		failed[p.Workload][0] += p.Failed
		failed[p.Workload][1] += c.Failed
		for _, m := range p.Metrics {
			cm, ok := c.metric(m.Name)
			if !ok || m.Name == "failed_ratio" || strings.Contains(m.Name, ".") {
				continue
			}
			k := [2]string{p.Workload, m.Name}
			if byMetric[k] == nil {
				byMetric[k] = &series{}
			}
			byMetric[k].p = append(byMetric[k].p, m.Value)
			byMetric[k].c = append(byMetric[k].c, cm.Value)
		}
	}
	var out []Verdict
	for k, s := range byMetric {
		bound, higher := boundOf(k[1])
		v, wins := verdict(s.p, s.c, bound, higher)
		pq1, pm, pq3 := Quartiles(s.p)
		cq1, cm, cq3 := Quartiles(s.c)
		out = append(out, Verdict{Workload: k[0], Metric: k[1], Parent: [3]float64{pq1, pm, pq3},
			Change: [3]float64{cq1, cm, cq3}, Wins: wins, Pairs: len(s.p), Verdict: v})
	}
	for wl, f := range failed {
		v := "unchanged"
		switch {
		case f[1] > f[0]:
			v = "worse"
		case f[1] < f[0]:
			v = "improved"
		}
		out = append(out, Verdict{Workload: wl, Metric: "failed_ratio", Parent: [3]float64{0, float64(f[0]), 0},
			Change: [3]float64{0, float64(f[1]), 0}, Verdict: v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Workload != out[j].Workload {
			return out[i].Workload < out[j].Workload
		}
		return out[i].Metric < out[j].Metric
	})
	return out
}

// compareDirs prints the verdict table for two result directories.
func compareDirs(w io.Writer, parentDir, changeDir string) error {
	if changeDir == "" {
		return fmt.Errorf("compare mode needs -with <change results directory>")
	}
	parent, err := loadReports(parentDir)
	if err != nil {
		return err
	}
	change, err := loadReports(changeDir)
	if err != nil {
		return err
	}
	flagged := 0
	for _, r := range append(append([]*Report(nil), parent...), change...) {
		if r.Record.LateFlagged {
			flagged++
		}
	}
	if flagged > 0 {
		fmt.Fprintf(w, "warning: %d run(s) flagged for generator lateness; their latencies include generator stalls\n", flagged)
	}
	fmt.Fprintf(w, "%-16s %-22s %-30s %-30s %-7s %s\n", "workload", "metric", "parent median [q1,q3]", "change median [q1,q3]", "wins", "verdict")
	for _, v := range compareReports(parent, change) {
		if v.Metric == "failed_ratio" {
			fmt.Fprintf(w, "%-16s %-22s %-30s %-30s %-7s %s\n", v.Workload, v.Metric,
				fmt.Sprintf("%.0f failed", v.Parent[1]), fmt.Sprintf("%.0f failed", v.Change[1]), "", v.Verdict)
			continue
		}
		fmt.Fprintf(w, "%-16s %-22s %-30s %-30s %-7s %s\n", v.Workload, v.Metric,
			fmt.Sprintf("%.4g [%.4g,%.4g]", v.Parent[1], v.Parent[0], v.Parent[2]),
			fmt.Sprintf("%.4g [%.4g,%.4g]", v.Change[1], v.Change[0], v.Change[2]),
			fmt.Sprintf("%d/%d", v.Wins, v.Pairs), v.Verdict)
	}
	return nil
}
