package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"

	"adahealth/internal/stats"
)

// percentile is the nearest-rank percentile of xs (q in (0, 1]): the
// smallest sample with at least a q share of the samples at or below
// it. It returns a measured value, never an interpolation, so a
// reported p50 is a latency some operation actually had. xs is not
// reordered; an empty xs gives 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// medianRoundThroughput is operations per second from the median round
// wall time: a few rounds slowed by a noisy neighbour leave it where
// it was, which a mean over the phase would not.
func medianRoundThroughput(opsPerRound int, roundWalls []time.Duration) float64 {
	m := median(seconds(roundWalls))
	if m <= 0 {
		return 0
	}
	return float64(opsPerRound) / m
}

// coefficientOfVariation is stddev/mean of xs: the spread of round
// walls the median throughput ignored.
func coefficientOfVariation(xs []float64) float64 {
	sum := stats.Summarize(xs)
	if sum.Mean == 0 {
		return 0
	}
	return sum.Std / sum.Mean
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open [start, end) stretch of wall time.
type interval struct{ start, end time.Time }

// selfTime is the part of parent that none of children covers: the
// parent's duration minus the length of the union of its children
// clipped to the parent. Overlapping children (stages the DAG ran
// concurrently) are counted once.
func selfTime(parent interval, children []interval) time.Duration {
	total := parent.end.Sub(parent.start)
	if total <= 0 {
		return 0
	}
	return total - unionLength(parent, children)
}

// unionLength is the length of the union of children clipped to
// bounds.
func unionLength(bounds interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start.Before(bounds.start) {
			c.start = bounds.start
		}
		if c.end.After(bounds.end) {
			c.end = bounds.end
		}
		if c.end.After(c.start) {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start.Before(clipped[j].start) })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case !c.start.After(cur.end):
			if c.end.After(cur.end) {
				cur.end = c.end
			}
		default:
			covered += cur.end.Sub(cur.start)
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end.Sub(cur.start)
	}
	return covered
}

// Limits BENCHMARK.json puts on metric names and counts.
const (
	maxEndToEnd = 16
	maxPerLayer = 128
	maxNameLen  = 64
)

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// validateMetricNames checks the benchmark's own metric tables against
// the limits of the BENCHMARK.json contract, so a metric added later
// cannot make the whole file be refused.
func validateMetricNames(endToEnd, perLayer []metricDef) error {
	if n := len(endToEnd); n < 1 || n > maxEndToEnd {
		return fmt.Errorf("%d end-to-end metrics, want 1..%d", n, maxEndToEnd)
	}
	if n := len(perLayer); n < 1 || n > maxPerLayer {
		return fmt.Errorf("%d per-layer metrics, want 1..%d", n, maxPerLayer)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if len(m.Name) > maxNameLen || !metricNameRE.MatchString(m.Name) {
			return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most %d characters", m.Name, maxNameLen)
		}
		if seen[m.Name] {
			return fmt.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}
