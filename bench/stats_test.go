package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{50, 10, 40, 20, 30} // unsorted on purpose
	for _, tc := range []struct {
		q    float64
		want float64
	}{
		{0.5, 30},  // rank ceil(2.5) = 3
		{0.9, 50},  // rank ceil(4.5) = 5
		{0.2, 10},  // rank 1: exactly a fifth of the samples are at or below it
		{0.21, 20}, // just above a fifth needs the second sample
		{1, 50},
		{0.0001, 10},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}
	// An even count reports a measured sample, never the mean of two.
	if got := median([]float64{1, 2, 3, 4}); got != 2 {
		t.Errorf("median of four = %v, want the second sample", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestThroughputUsesTheMedianRound(t *testing.T) {
	walls := []time.Duration{time.Second, time.Second, time.Second, time.Second, 9 * time.Second}
	// One round a noisy neighbour stretched ninefold must not move it
	// (a mean over the phase would report 12 ops / 2.6 s = 4.6).
	if got := medianRoundThroughput(12, walls); got != 12 {
		t.Errorf("throughput = %v ops/s, want 12", got)
	}
	if got := medianRoundThroughput(12, nil); got != 0 {
		t.Errorf("throughput without rounds = %v, want 0", got)
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(10), at(40)},
		{at(30), at(60)},   // overlaps the first: union is 10..60
		{at(60), at(70)},   // touches the union's end: 10..70
		{at(90), at(130)},  // runs past the parent: clipped to 90..100
		{at(-20), at(-10)}, // wholly outside: nothing
		{at(50), at(50)},   // empty
	}
	if got, want := unionLength(parent, children), 70*time.Millisecond; got != want {
		t.Errorf("union = %v, want %v", got, want)
	}
	if got, want := selfTime(parent, children), 30*time.Millisecond; got != want {
		t.Errorf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("self time without children = %v, want the whole span", got)
	}

	tr := &tracer{}
	op := tr.nextOp()
	root := tr.add("op", at(0), at(100), -1, op)
	run := tr.add("run", at(10), at(90), root, op)
	tr.add("stage", at(10), at(50), run, op)
	tr.add("stage", at(40), at(80), run, op)
	self := tr.selfTimes()
	if self["op"] != 20 || self["run"] != 10 || self["stage"] != 80 {
		t.Errorf("self times by name = %v, want op 20, run 10, stage 80", self)
	}
}

func TestMetricTablesFitTheContract(t *testing.T) {
	if err := validateMetricNames(endToEndMetrics, perLayerMetrics); err != nil {
		t.Fatal(err)
	}
	ok := []metricDef{{Name: "a.b-c_9"}}
	many := func(prefix string, n int) []metricDef {
		out := make([]metricDef, n)
		for i := range out {
			out[i].Name = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	for name, tables := range map[string][2][]metricDef{
		"space in a name":       {ok, {{Name: "has space"}}},
		"slash in a name":       {ok, {{Name: "a/b"}}},
		"empty name":            {ok, {{Name: ""}}},
		"leading dot":           {ok, {{Name: ".a"}}},
		"65 characters":         {ok, {{Name: string(make([]byte, 65))}}},
		"used twice":            {ok, ok},
		"17 end-to-end metrics": {many("e", 17), ok},
		"129 per-layer metrics": {ok, many("p", 129)},
		"no per-layer metrics":  {ok, nil},
	} {
		if err := validateMetricNames(tables[0], tables[1]); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := validateMetricNames(many("e", 16), many("p", 128)); err != nil {
		t.Errorf("16 end-to-end and 128 per-layer metrics refused: %v", err)
	}
}

// TestBenchmarkJSONNamesTheTables keeps BENCHMARK.json and the tables
// the program reports from saying the same thing.
func TestBenchmarkJSONNamesTheTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range newWorkloads() {
		want = append(want, w.shape().name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	if fmt.Sprint(file.EndToEnd) != fmt.Sprint(endToEndMetrics) {
		t.Errorf("end_to_end %v, program has %v", file.EndToEnd, endToEndMetrics)
	}
	if fmt.Sprint(file.PerLayer) != fmt.Sprint(perLayerMetrics) {
		t.Errorf("per_layer differs from the program's table")
	}
}

// TestSmoke drives the two fastest workloads end to end — boot cycles,
// a round, the traced phase, the probes, every output check — in a
// smoke-sized run.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, name := range []string{"ward-stream", "cohort-cold"} {
		if code := run(options{workload: name, seed: 1, seconds: 1, trace: -1, smoke: true, out: out}); code != 0 {
			t.Fatalf("%s: smoke run exited %d", name, code)
		}
		if _, err := os.Stat(filepath.Join(out, name+".trace.json")); err != nil {
			t.Errorf("%s: no trace file: %v", name, err)
		}
	}
}
