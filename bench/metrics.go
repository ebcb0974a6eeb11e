package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer
// table. Bound is the share of the parent's median by which a gated
// metric may worsen (end-to-end only).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndMetrics are the four gated figures, the same names on every
// workload. Each timing is a median over repeats of identical work
// (README.md, "Method"). The wall-clock bounds are as wide as the
// contract allows because the durable workloads carry the host's disk:
// ten runs of unchanged code spread up to 18 % there (README.md,
// "Measured noise"). alloc_mb_per_op spreads 0.2 % and keeps the tight
// bound.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.03},
}

// perLayerMetrics are the ungated layer figures of the traced phase
// and the direct probes. A layer a workload does not exercise reports
// 0 there; README.md says which end-to-end metric each should move.
var perLayerMetrics = []metricDef{
	// service: the admission → report path around one job.
	{Name: "service.submit_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submit_body_kb", Unit: "kB", Better: "lower"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.run_ms", Unit: "ms", Better: "lower"},
	{Name: "service.events_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "service.report_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "service.report_kb", Unit: "kB", Better: "lower"},
	{Name: "service.unexplained_ms", Unit: "ms", Better: "lower"},
	// core: the stage DAG inside service.run_ms.
	{Name: "core.stage.characterize_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage.transform_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage.partialmine_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage.recall_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage.sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage.patterns_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage.store-knowledge_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage.endgoals_ms", Unit: "ms", Better: "lower"},
	{Name: "core.stage_union_ms", Unit: "ms", Better: "lower"},
	{Name: "core.sched_gap_ms", Unit: "ms", Better: "lower"},
	// compute kernels, called directly on the workload's first log.
	{Name: "stats.characterize_ms", Unit: "ms", Better: "lower"},
	{Name: "vsm.build_ms", Unit: "ms", Better: "lower"},
	{Name: "partial.mine_ms", Unit: "ms", Better: "lower"},
	{Name: "fpm.mine_ms", Unit: "ms", Better: "lower"},
	{Name: "optimize.sweep_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "optimize.sweep_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.kmeans_auto_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.kmeans_iters", Unit: "count", Better: "lower"},
	{Name: "classify.cv_ms", Unit: "ms", Better: "lower"},
	// kdb: queries and writes on the workload's own K-DB.
	{Name: "kdb.similar_ms", Unit: "ms", Better: "lower"},
	{Name: "kdb.similar_scanned", Unit: "count", Better: "lower"},
	{Name: "kdb.topk_ms", Unit: "ms", Better: "lower"},
	{Name: "kdb.store_items_ms", Unit: "ms", Better: "lower"},
	{Name: "kdb.live_append_ms", Unit: "ms", Better: "lower"},
	// docstore: the WAL and snapshots under the K-DB.
	{Name: "docstore.wal_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "docstore.wal_commit_par_ms", Unit: "ms", Better: "lower"},
	{Name: "docstore.wal_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "docstore.fsyncs_per_op", Unit: "count", Better: "lower"},
	{Name: "docstore.compactions", Unit: "count", Better: "lower"},
	{Name: "docstore.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "docstore.find_eq_ms", Unit: "ms", Better: "lower"},
	{Name: "docstore.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "docstore.replay_frames", Unit: "count", Better: "lower"},
	// stream: append → model-updated on a live dataset.
	{Name: "stream.register_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.append_direct_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.append_http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "vsm.live_append_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.minibatch_ms", Unit: "ms", Better: "lower"},
	{Name: "stream.resweeps", Unit: "count", Better: "lower"},
	// repl: leader commit → follower applied.
	{Name: "repl.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.poll_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.commit_to_applied_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.append_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.read_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.catchup_frames_per_s", Unit: "1/s", Better: "higher"},
	// the instrumentation, the harness and the machine.
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.series", Unit: "count", Better: "lower"},
	{Name: "synth.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "client.op_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.op_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.round_wall_cv", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "host.ref_kernel_ms", Unit: "ms", Better: "lower"},
}

// metricValue is one reported figure.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the figures of one run by name.
type metricSet map[string]float64

// result is the contract's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// project picks the metrics of defs out of set, in the wire form. A
// metric the run did not produce reports 0, so the key set is the same
// on every workload.
func project(set metricSet, defs ...[]metricDef) map[string]metricValue {
	out := map[string]metricValue{}
	for _, table := range defs {
		for _, d := range table {
			out[d.Name] = metricValue{Value: set[d.Name], Unit: d.Unit}
		}
	}
	return out
}

// printTable writes every metric of set by name with its unit, gated
// ones first, for a reader at a terminal.
func printTable(w io.Writer, workload string, set metricSet, defs ...[]metricDef) {
	for _, table := range defs {
		for _, d := range table {
			v, ok := set[d.Name]
			if !ok {
				continue
			}
			gate := ""
			if d.Bound > 0 {
				gate = fmt.Sprintf("  (gated, bound %.0f%%)", d.Bound*100)
			}
			fmt.Fprintf(w, "%-14s %-34s %14.4f %-6s%s\n", workload, d.Name, v, d.Unit, gate)
		}
	}
}

func writeResult(w io.Writer, r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
