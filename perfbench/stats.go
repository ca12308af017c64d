package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples that must lie strictly beyond a tail
// percentile before it is reported; with fewer the tail is refused.
const minBeyond = 10

// Percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether the sample supports it. A tail percentile (p > 0.5) is supported
// only when at least minBeyond samples rank above it. Failed requests enter
// xs as +Inf, so they miss every latency limit.
func Percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if p > 0.5 && n-rank < minBeyond {
		return s[rank-1], false
	}
	return s[rank-1], true
}

// Median is the p50 of xs (0 for an empty sample).
func Median(xs []float64) float64 {
	v, _ := Percentile(xs, 0.5)
	return v
}

// Quartiles returns the first quartile, median and third quartile of xs
// with the same inclusive interpolation as Python's
// statistics.quantiles(xs, n=4).
func Quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	// The "exclusive" method, in the library's own integer arithmetic.
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(2), at(3)
}

// Metric is one reported number with its unit and the sample count it
// summarizes (0 for a single measurement or a count).
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Refused marks a tail percentile the sample could not support; its
	// Value is the raw order statistic and must not be used as a gate.
	Refused bool `json:"refused,omitempty"`
}

func (m Metric) String() string {
	s := fmt.Sprintf("%-34s %14.4f %-6s n=%d", m.Name, m.Value, m.Unit, m.N)
	if m.Refused {
		s += fmt.Sprintf("  (refused: fewer than %d samples beyond)", minBeyond)
	}
	return s
}

// latencyMetrics reports the median and one tail percentile of a latency
// sample in milliseconds, under prefix_p50_ms and prefix_pXX_ms.
func latencyMetrics(prefix string, ms []float64, tail float64) []Metric {
	p50, _ := Percentile(ms, 0.5)
	pt, ok := Percentile(ms, tail)
	return []Metric{
		{Name: prefix + "_p50_ms", Value: p50, Unit: "ms", N: len(ms)},
		{Name: fmt.Sprintf("%s_p%d_ms", prefix, int(math.Round(tail*100))), Value: pt, Unit: "ms", N: len(ms), Refused: !ok},
	}
}

// tailMetrics reports p50, p90 and p99 of a latency sample; a tail the
// sample cannot support is printed as refused.
func tailMetrics(prefix string, ms []float64) []Metric {
	return append(latencyMetrics(prefix, ms, 0.9), latencyMetrics(prefix, ms, 0.99)[1])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
