// Package obs is the daemon's dependency-free metrics spine: counters,
// gauges, and fixed-bucket histograms in an atomic, shard-friendly
// Registry, with Prometheus text-format (0.0.4) exposition served as
// GET /metrics on both daemon roles. Instruments are cheap enough for
// hot paths — a counter increment is one atomic add, a histogram
// observation is a binary search plus two atomics — and registration
// is idempotent so several services in one process (tests, the
// benchmark's in-process daemons) share the Default registry without
// collisions.
//
// # Metric-name reference
//
// Service layer (internal/service):
//
//	service_queue_depth                     gauge      jobs admitted and waiting for a worker
//	service_workers_running                 gauge      jobs executing right now
//	service_workers                         gauge      configured worker count
//	service_admissions_total{outcome}       counter    accepted | queue_full | degraded | invalid | closed
//	service_jobs_total{state}               counter    jobs reaching a terminal state: done | failed | cancelled
//	service_job_duration_seconds{class}     histogram  admission → terminal latency by priority class
//	                                                   (interactive ≥ 10, standard 1..9, batch ≤ 0)
//
// Core stage engine (fed from the core.StageEvent observer seam):
//
//	core_stage_seconds{stage}               histogram  per-stage wall latency (start → finish event)
//	core_stage_total{stage,outcome}         counter    stage executions: ok | error
//	core_stage_panics_total{stage}          counter    recovered stage panics (core.PanicError)
//
// Knowledge store (internal/docstore, internal/kdb):
//
//	docstore_wal_commit_seconds             histogram  group-commit write+fsync latency
//	docstore_wal_commit_frames              histogram  frames per group commit (batch size)
//	docstore_wal_frames_total               counter    frames made durable
//	docstore_flush_total{outcome}           counter    memtable flushes: ok | error
//	docstore_flush_seconds                  histogram  flush duration
//	docstore_compactions_total{outcome}     counter    snapshot compactions: ok | error
//	docstore_compaction_seconds             histogram  compaction duration
//	kdb_breaker_mode{mode}                  gauge      1 on the active circuit-breaker mode, 0 elsewhere
//	kdb_breaker_trips_total                 counter    healthy → degraded transitions
//	kdb_dropped_writes_total                counter    writes refused while degraded
//
// Replication (internal/repl):
//
//	repl_frames_shipped_total               counter    leader: WAL bytes-bearing reads served to followers
//	repl_frames_applied_total               counter    follower: frames verified and applied
//	repl_frames_behind                      gauge      follower: leader frames minus applied frames
//	repl_connected                          gauge      follower: 1 while the WAL stream is live
//	repl_reconnects_total                   counter    follower: stream attempts after the first
//	repl_bootstraps_total                   counter    follower: full snapshot re-syncs
//	repl_backoff_resets_total               counter    follower: backoff resets earned by real progress
//
// Streaming ingestion (internal/stream):
//
//	stream_append_seconds                   histogram  append → model-updated latency (in-place VSM refresh)
//	stream_appends_total{outcome}           counter    live appends: ok | rejected | failed
//	stream_drift{dataset}                   gauge      fraction of visits off-model since last sweep
//	stream_resweeps_total{event}            counter    scheduled | completed | failed
//
// Series appear in the exposition as soon as their package is linked
// in (families register at init), so a scrape can assert coverage even
// before traffic: a family with no children yet exposes only its
// # HELP / # TYPE header.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBuckets are the default histogram bounds for operation
// latencies in seconds: 500µs to 10s, roughly ×2.5 per step.
var LatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// CountBuckets are the default bounds for small cardinalities such as
// group-commit batch sizes.
var CountBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Registry holds metric families keyed by name. The zero value is not
// usable; call NewRegistry, or share Default.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry. Most code uses Default; tests
// that need isolation build their own.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default is the process-wide registry every package instruments
// against, mirroring the store-once semantics of expvar: registration
// is idempotent, so two services in one process share series.
func Default() *Registry { return defaultRegistry }

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric with a fixed label schema and a child per
// distinct label-value tuple.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram upper bounds (no +Inf), sorted

	mu       sync.RWMutex
	children map[string]child
}

type child interface {
	// value is the scalar the exposition writes for counters/gauges;
	// histograms ignore it.
	value() float64
}

func (r *Registry) family(name, help, typ string, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: %s re-registered as %s/%d labels (was %s/%d)", name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels, buckets: buckets, children: make(map[string]child)}
	r.families[name] = f
	return f
}

// childKey joins label values; \xff cannot appear in valid UTF-8 label
// values produced by our own instrumentation.
func childKey(values []string) string { return strings.Join(values, "\xff") }

func (f *family) child(values []string, make func() child) child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s needs %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := childKey(values)
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c = make()
	f.children[key] = c
	return c
}

// Counter is a monotonically increasing integer series.
type Counter struct {
	labelValues []string
	v           atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be ≥ 0 to keep the series monotone).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) value() float64 { return float64(c.v.Load()) }

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// With returns (creating on first use) the child for the given label
// values, in the order the labels were declared.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() child {
		return &Counter{labelValues: append([]string(nil), values...)}
	}).(*Counter)
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return (&CounterVec{r.family(name, help, typeCounter, nil, nil)}).With()
}

// CounterVec registers (or returns the existing) labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, typeCounter, nil, labels)}
}

// Gauge is a settable float series; a pull Gauge instead evaluates a
// closure at scrape time.
type Gauge struct {
	labelValues []string
	bits        atomic.Uint64
	fn          atomic.Pointer[func() float64]
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (either sign).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value reports the current value, evaluating the closure for pull
// gauges.
func (g *Gauge) Value() float64 {
	if p := g.fn.Load(); p != nil {
		return (*p)()
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) value() float64 { return g.Value() }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// With returns (creating on first use) the settable child for the
// given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() child {
		return &Gauge{labelValues: append([]string(nil), values...)}
	}).(*Gauge)
}

// Func binds (or rebinds — latest wins, so a fresh Service in the same
// process takes over the series) a pull closure to the child for the
// given label values.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	g := v.With(values...)
	g.fn.Store(&fn)
}

// Gauge registers (or returns the existing) unlabeled settable gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return (&GaugeVec{r.family(name, help, typeGauge, nil, nil)}).With()
}

// GaugeVec registers (or returns the existing) labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, typeGauge, nil, labels)}
}

// GaugeFunc registers an unlabeled gauge evaluated at scrape time.
// Re-registering the same name replaces the closure.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	(&GaugeVec{r.family(name, help, typeGauge, nil, nil)}).Func(fn)
}

// Histogram counts observations into fixed buckets. Observation is two
// atomic adds plus a CAS for the running sum; buckets never reallocate.
type Histogram struct {
	labelValues []string
	upper       []float64      // sorted upper bounds, no +Inf
	counts      []atomic.Int64 // len(upper)+1, last is +Inf
	sumBits     atomic.Uint64
	count       atomic.Int64
}

// Observe records v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count reports the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (0 < q ≤ 1) from the cumulative
// buckets: the upper bound of the first bucket covering q of the
// observations. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i := range h.upper {
		cum += h.counts[i].Load()
		if cum >= need {
			return h.upper[i]
		}
	}
	return math.Inf(1)
}

func (h *Histogram) value() float64 { return float64(h.count.Load()) }

// HistogramVec is a histogram family with labels; every child shares
// the family's buckets.
type HistogramVec struct{ f *family }

// With returns (creating on first use) the child for the given label
// values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() child {
		return &Histogram{
			labelValues: append([]string(nil), values...),
			upper:       v.f.buckets,
			counts:      make([]atomic.Int64, len(v.f.buckets)+1),
		}
	}).(*Histogram)
}

// Histogram registers (or returns the existing) unlabeled histogram
// with the given upper bounds (nil selects LatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec registers (or returns the existing) labeled histogram
// family with the given upper bounds (nil selects LatencyBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if buckets == nil {
		buckets = LatencyBuckets
	}
	b := append([]float64(nil), buckets...)
	sort.Float64s(b)
	return &HistogramVec{r.family(name, help, typeHistogram, b, labels)}
}

// Value is the scrape-free way to read one series, used by tests and
// smoke gates: counters report their count, gauges their value
// (evaluating pull closures), histograms their observation count.
// Unknown names and label tuples report 0.
func (r *Registry) Value(name string, labelValues ...string) float64 {
	r.mu.RLock()
	f, ok := r.families[name]
	r.mu.RUnlock()
	if !ok {
		return 0
	}
	f.mu.RLock()
	c, ok := f.children[childKey(labelValues)]
	f.mu.RUnlock()
	if !ok {
		return 0
	}
	return c.value()
}
