package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval the harness recorded around its own call
// into a layer, or rebuilt from timestamps the API already returns.
// Parent indexes the span that caused it (-1 for a root); spans of one
// operation share Op (-1 for probes made outside any operation).
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ops   int
}

// nextOp hands out an operation identifier.
func (t *tracer) nextOp() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops - 1
}

// add records one span and returns its index, for children to name as
// their parent.
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, StartNS: start.UnixNano(), EndNS: end.UnixNano(), Parent: parent, Op: op,
	})
	return len(t.spans) - 1
}

// selfTimes totals, per span name, the time no child span covers.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += ms(selfTime(s.interval(), children[i]))
	}
	return out
}

func (s span) interval() interval {
	return interval{start: time.Unix(0, s.StartNS), end: time.Unix(0, s.EndNS)}
}

// traceFile is what bench/out/<workload>.trace.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Ops      int                `json:"ops"`
	SelfMS   map[string]float64 `json:"self_ms_by_name"`
	Spans    []span             `json:"spans"`
}

// write stores the spans under dir as <workload>.trace.json.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	self := t.selfTimes()
	t.mu.Lock()
	doc := traceFile{Workload: workload, Seed: seed, Ops: t.ops, SelfMS: self, Spans: t.spans}
	t.mu.Unlock()
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, data, 0o644)
}
