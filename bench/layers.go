package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"adahealth/internal/service"
)

// layerSamples collects per-layer samples of the traced phase and the
// probes; each metric reports the median of its samples.
type layerSamples struct {
	mu sync.Mutex
	m  map[string][]float64
}

func newLayerSamples() *layerSamples { return &layerSamples{m: map[string][]float64{}} }

func (l *layerSamples) add(name string, v float64) {
	l.mu.Lock()
	l.m[name] = append(l.m[name], v)
	l.mu.Unlock()
}

// take returns the median of name's samples and forgets them: for
// samples that feed a derived metric and are not one themselves.
func (l *layerSamples) take(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := median(l.m[name])
	delete(l.m, name)
	return m
}

// medians writes the median of every sampled metric into out.
func (l *layerSamples) medians(out metricSet) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, xs := range l.m {
		out[name] = median(xs)
	}
}

// timed runs fn reps times and records each duration, in milliseconds,
// as a sample of name and as a probe span.
func (e *env) timed(name string, reps int, fn func() error) error {
	if e.smoke {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		e.lay.add(name, ms(t1.Sub(t0)))
		if e.tr != nil {
			e.tr.add(name, t0, t1, -1, -1)
		}
	}
	return nil
}

// pipelineStages are the stages reported one by one; cluster, demand
// and rank take well under a millisecond and only count in the union.
var pipelineStages = map[string]bool{
	"characterize": true, "transform": true, "partialmine": true, "recall": true,
	"sweep": true, "patterns": true, "store-knowledge": true, "endgoals": true,
}

// traceAnalysis rebuilds one job's spans from the harness's own
// timestamps (t0 request sent, t1 202 read, tEOF event stream ended,
// tEnd report read) and the ones the status endpoint returns: the job's
// queued/started/finished times and its stage intervals. Harness and
// daemon share a process, so they share a clock.
func traceAnalysis(e *env, c *client, jobURL string, bodyBytes, reportBytes int, t0, t1, tEOF, tEnd time.Time) error {
	if err := c.do(http.MethodGet, jobURL, nil, http.StatusOK); err != nil {
		return err
	}
	var st service.JobState
	if err := json.Unmarshal(c.buf.Bytes(), &st); err != nil {
		return fmt.Errorf("decoding job state: %w", err)
	}
	if st.Status != service.StatusDone || st.StartedAt == nil || st.FinishedAt == nil || st.Trace == nil {
		return fmt.Errorf("job %s is %s with an incomplete state", st.ID, st.Status)
	}
	queued, started, finished := st.QueuedAt, *st.StartedAt, *st.FinishedAt

	op := e.tr.nextOp()
	root := e.tr.add("op", t0, tEnd, -1, op)
	e.tr.add("service.submit_rtt", t0, t1, root, op)
	e.tr.add("service.queue_wait", queued, started, root, op)
	run := e.tr.add("service.run", started, finished, root, op)
	e.tr.add("service.events_tail", finished, tEOF, root, op)
	e.tr.add("service.report_rtt", tEOF, tEnd, root, op)

	parts := []interval{{t0, t1}, {queued, started}, {started, finished}, {finished, tEOF}, {tEOF, tEnd}}
	e.lay.add("service.submit_rtt_ms", ms(t1.Sub(t0)))
	e.lay.add("service.submit_body_kb", float64(bodyBytes)/1e3)
	e.lay.add("service.queue_wait_ms", ms(started.Sub(queued)))
	e.lay.add("service.run_ms", ms(finished.Sub(started)))
	e.lay.add("service.events_tail_ms", ms(tEOF.Sub(finished)))
	e.lay.add("service.report_rtt_ms", ms(tEnd.Sub(tEOF)))
	e.lay.add("service.report_kb", float64(reportBytes)/1e3)
	e.lay.add("service.unexplained_ms", ms(selfTime(interval{t0, tEnd}, parts)))

	runIv := interval{started, finished}
	stages := make([]interval, 0, len(st.Trace.Stages))
	for _, s := range st.Trace.Stages {
		stages = append(stages, interval{s.Start, s.End})
		e.tr.add("core.stage."+s.Stage, s.Start, s.End, run, op)
		if pipelineStages[s.Stage] {
			e.lay.add("core.stage."+s.Stage+"_ms", ms(s.End.Sub(s.Start)))
		}
	}
	e.lay.add("core.stage_union_ms", ms(unionLength(runIv, stages)))
	e.lay.add("core.sched_gap_ms", ms(selfTime(runIv, stages)))
	return nil
}
