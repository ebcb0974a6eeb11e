// Package core orchestrates the full ADA-HEALTH pipeline of Figure 1:
// data characterization → data transformation → adaptive partial
// mining → data-analytics optimization → knowledge extraction →
// K-DB storage → end-goal recommendation → knowledge ranking.
//
// Given an examination log and minimal configuration, Analyze produces
// a ranked, manageable set of knowledge items with no further user
// intervention — the paper's headline behaviour.
//
// # Execution model
//
// The pipeline is an explicit stage DAG (see pipeline): each stage
// names the stages it waits for, and a scheduler starts it once they
// have completed, running independent stages concurrently on a bounded
// pool of CPU slots (slots.Pool) — pattern mining overlaps the
// K-sweep, demand extraction overlaps clustering. The pool is the
// engine's one CPU budget: a running stage holds one slot, and the
// sweep and partial-mining stages fan their independent units (one CV
// assessment per K, one probe per (fraction, K)) out over whatever
// slots are idle right now, never waiting for one. The pool belongs to
// the Engine and is shared by every analysis on it and its WithConfig
// derivations (a job service's jobs among them), so a lone analysis
// keeps every core busy and concurrent ones never compute on more
// goroutines than it has slots.
//
// Cancellation is threaded through every compute kernel via
// context.Context. Per-stage wall time and allocation land in
// Report.Stages, and the scheduler records every stage's latency,
// outcome and recovered panic in the core_stage_* series (package
// obs), whether a library call or a service job runs the analysis.
// Each stage runs once, with panic isolation (covering its fan-out
// units, whichever goroutine runs them) and an optional deadline
// (Config.StageTimeout). The Report does not depend on how stages
// interleave or how their units spread: Parallelism 1 runs everything
// one unit at a time and produces a bit-for-bit identical Report.
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"adahealth/internal/cluster"
	"adahealth/internal/dataset"
	"adahealth/internal/endgoal"
	"adahealth/internal/fpm"
	"adahealth/internal/freelist"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/slots"
	"adahealth/internal/stats"
	"adahealth/internal/vsm"
)

// Config configures an Engine. The zero value plus a KDB directory is
// a working paper-faithful configuration (defaults are filled in).
type Config struct {
	// VSM selects the data transformation (paper: raw counts).
	VSM vsm.Options
	// Partial configures the adaptive horizontal partial mining
	// (paper: fractions 20%/40%/100% of exam types, 5% tolerance).
	Partial partial.Config
	// Sweep configures the K optimization (paper: Table I grid,
	// 10-fold CV decision tree).
	Sweep optimize.SweepConfig
	// MinSupportFrac is the relative support threshold for pattern
	// mining over visits; default 0.02.
	MinSupportFrac float64
	// MinConfidence is the association-rule threshold; default 0.6.
	MinConfidence float64
	// MaxPatternItems bounds how many pattern knowledge items are
	// stored (the "manageable set"); default 50.
	MaxPatternItems int
	// Recall configures the knowledge-recall stage: prior K-DB
	// knowledge of statistically similar datasets warm-starts the K
	// sweep (Section IV-A's self-learning loop). The zero value is
	// recall on with the documented defaults; a miss leaves the
	// analysis bit-for-bit identical to Recall.Disabled.
	Recall RecallConfig
	// KDBDir is the knowledge-base directory ("" = in-memory).
	KDBDir string
	// Seed drives every stochastic component.
	Seed int64
	// Parallelism sizes the engine's one CPU budget: how many stages,
	// and units of their fan-out, run at once across every analysis on
	// the engine, so concurrent analyses (a job service's jobs) never
	// oversubscribe the machine; 0 uses all cores
	// (runtime.GOMAXPROCS(0)), 1 runs everything one at a time,
	// negative is rejected by Validate. WithConfig derivations inherit
	// the budget and ignore their own Parallelism.
	Parallelism int
	// StageTimeout bounds each stage's wall time: a stage exceeding it
	// fails the analysis with a *StageTimeoutError (errors.Is-matchable
	// against context.DeadlineExceeded). 0 (the default) disables
	// per-stage deadlines.
	StageTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.MinSupportFrac <= 0 {
		c.MinSupportFrac = 0.02
	}
	if c.MinConfidence <= 0 {
		c.MinConfidence = 0.6
	}
	if c.MaxPatternItems <= 0 {
		c.MaxPatternItems = 50
	}
	c.Partial.Seed = c.Seed
	c.Sweep.Seed = c.Seed
	return c
}

// Validate checks the declared analysis parameters before defaults are
// filled in: a zero value always passes (it selects the documented
// default), anything outside a parameter's meaningful range is
// rejected with a descriptive error. New and Engine.WithConfig enforce
// it, so a bad configuration fails at construction/admission time
// rather than silently defaulting or misbehaving mid-analysis.
func (c Config) Validate() error {
	if c.MinSupportFrac < 0 || c.MinSupportFrac > 1 {
		return fmt.Errorf("core: MinSupportFrac %v outside [0, 1] (it is a fraction of visits; 0 selects the 0.02 default)", c.MinSupportFrac)
	}
	if c.MinConfidence < 0 || c.MinConfidence > 1 {
		return fmt.Errorf("core: MinConfidence %v outside (0, 1] (0 selects the 0.6 default)", c.MinConfidence)
	}
	if c.MaxPatternItems < 0 {
		return fmt.Errorf("core: negative MaxPatternItems %d (0 selects the default of 50)", c.MaxPatternItems)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: negative Parallelism %d (use 0 for all cores)", c.Parallelism)
	}
	if c.Recall.MinSimilarity < 0 || c.Recall.MinSimilarity > 1 {
		return fmt.Errorf("core: Recall.MinSimilarity %v outside [0, 1] (0 selects the 0.9 default)", c.Recall.MinSimilarity)
	}
	if c.Recall.MaxSources < 0 {
		return fmt.Errorf("core: negative Recall.MaxSources %d (0 selects the default of 3)", c.Recall.MaxSources)
	}
	if c.StageTimeout < 0 {
		return fmt.Errorf("core: negative StageTimeout %v (0 disables per-stage deadlines)", c.StageTimeout)
	}
	if c.Seed < 0 {
		return fmt.Errorf("core: negative Seed %d (seeds must be non-negative so derived per-component seeds stay in range)", c.Seed)
	}
	if !c.VSM.Weighting.Valid() {
		return fmt.Errorf("core: unknown VSM weighting %s", c.VSM.Weighting)
	}
	if !c.VSM.Normalization.Valid() {
		return fmt.Errorf("core: unknown VSM normalization %s", c.VSM.Normalization)
	}
	if !c.Sweep.Cluster.Algorithm.Valid() {
		return fmt.Errorf("core: unknown sweep clustering algorithm %s", c.Sweep.Cluster.Algorithm)
	}
	if !c.Partial.Cluster.Algorithm.Valid() {
		return fmt.Errorf("core: unknown partial-mining clustering algorithm %s", c.Partial.Cluster.Algorithm)
	}
	if c.Sweep.Cluster.BatchSize < 0 {
		return fmt.Errorf("core: negative sweep mini-batch size %d (0 selects the default of %d)", c.Sweep.Cluster.BatchSize, cluster.DefaultBatchSize)
	}
	if c.Partial.Cluster.BatchSize < 0 {
		return fmt.Errorf("core: negative partial-mining mini-batch size %d (0 selects the default of %d)", c.Partial.Cluster.BatchSize, cluster.DefaultBatchSize)
	}
	if err := c.Sweep.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := c.Partial.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Engine is the ADA-HEALTH automated analysis engine. It owns what
// its analyses share: the K-DB, one CPU budget (a slots.Pool of
// Config.Parallelism slots), one sweep arena and one free list of
// pattern miners (fpm.Miner, each holding its FP-trees and transaction
// buffers between runs). WithConfig derivations share all four. The
// arena and the free list grow to the number of sweeps and patterns
// stages that run at once, which the slots bound, and keep that
// working memory for the engine's life.
type Engine struct {
	cfg    Config
	kdb    *kdb.KDB
	pool   slots.Pool
	arena  *optimize.Arena
	miners *freelist.List[fpm.Miner]
}

// New builds an engine, opening (or creating) its knowledge base. The
// configuration is validated first (see Config.Validate); a rejected
// configuration returns a descriptive error instead of silently
// defaulting.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	k, err := kdb.Open(cfg.KDBDir)
	if err != nil {
		return nil, fmt.Errorf("core: opening K-DB: %w", err)
	}
	return NewWithKDB(cfg, k)
}

// NewWithKDB builds an engine over an already-open K-DB, which the
// caller keeps owning (Close it after the engine is done); New builds
// through it, and fault-injection tests pass a K-DB opened over a
// faulty filesystem (kdb.OpenStore with docstore.Options.FS).
// Config.KDBDir is ignored.
func NewWithKDB(cfg Config, k *kdb.KDB) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Parallelism
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Engine{cfg: cfg.withDefaults(), kdb: k, pool: slots.New(n), arena: optimize.NewArena(), miners: &freelist.List[fpm.Miner]{}}, nil
}

// WithConfig returns a derived engine that analyzes under cfg but
// shares this engine's K-DB, CPU budget, sweep arena and miners. It is
// how a long-running service runs per-job configuration overrides
// (seed, thresholds, sweep grid) without opening a second K-DB or a
// second pool. The override is validated like New validates; KDBDir and
// Parallelism are ignored — the K-DB and the budget are inherited.
func (e *Engine) WithConfig(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.KDBDir, cfg.Parallelism = e.cfg.KDBDir, e.cfg.Parallelism
	return &Engine{cfg: cfg.withDefaults(), kdb: e.kdb, pool: e.pool, arena: e.arena, miners: e.miners}, nil
}

// Config returns the engine's resolved configuration (defaults filled
// in).
func (e *Engine) Config() Config { return e.cfg }

// KDB exposes the engine's knowledge base (feedback recording,
// inspection).
func (e *Engine) KDB() *kdb.KDB { return e.kdb }

// Report is the complete outcome of one automated analysis.
type Report struct {
	Descriptor      stats.Descriptor
	Transformed     TransformedSummary
	Partial         *partial.Result
	SelectedSubset  int // features used after partial mining
	Sweep           *optimize.SweepResult
	BestClustering  *cluster.Result
	ClusterItems    []knowledge.Item
	PatternItems    []knowledge.Item
	RuleItems       []knowledge.Item
	Recommendations []endgoal.Recommendation
	Ranked          []knowledge.Item
	// Demand is the monthly examination-volume series backing the
	// resource-planning end-goal.
	Demand []stats.DemandPoint

	// Recall reports what the knowledge-recall stage retrieved from
	// the K-DB and how it warm-started the sweep (nil when the stage
	// is disabled).
	Recall *RecallOutcome

	// Stages holds the per-stage execution traces of this analysis,
	// ordered by start time; overlapping [Start, End) intervals show
	// which stages actually ran concurrently.
	Stages []StageTrace
	// StageConcurrency is the maximum number of stages the scheduler
	// observed running at the same instant (1 when Parallelism is 1).
	StageConcurrency int

	// Degraded is non-nil when the analysis completed without its full
	// K-DB contract — see Degradation. Nil on a fully healthy run.
	Degraded *Degradation `json:"degraded,omitempty"`
}

// TransformedSummary describes the analysis's transformed dataset: the
// VSM configuration and shape rather than the full matrix, which is
// recomputable from the log.
type TransformedSummary struct {
	Dataset     string   `json:"dataset"`
	Weighting   string   `json:"weighting"`
	Norm        string   `json:"normalization"`
	NumRows     int      `json:"num_rows"`
	NumFeatures int      `json:"num_features"`
	Sparsity    float64  `json:"sparsity"`
	Features    []string `json:"features"`
}

// Degradation reports that an analysis completed gracefully degraded:
// K-DB writes were dropped or the recall read fell back because the
// knowledge store was read-only, offline, or broken. The analytical
// results themselves are complete and correct — only the
// self-learning side effects (stored descriptor and knowledge,
// flushes) were shed.
type Degradation struct {
	// DroppedKDBWrites counts the K-DB writes the pipeline shed.
	DroppedKDBWrites int `json:"dropped_kdb_writes"`
	// Reasons lists what degraded and why (sorted, deduplicated).
	Reasons []string `json:"reasons"`
}

// Analyze runs the full pipeline on a log. It is AnalyzeContext with
// a background context.
func (e *Engine) Analyze(log *dataset.Log) (*Report, error) {
	return e.AnalyzeContext(context.Background(), log)
}

// AnalyzeContext runs the full pipeline on a log under a context.
// Cancellation is honoured inside the clustering, sweep and
// partial-mining hot loops (per Lloyd iteration / per probe) and at
// stage and phase boundaries elsewhere: a cancelled analysis returns
// ctx.Err() (errors.Is-matchable) as soon as the in-flight work
// reaches its next checkpoint, rather than finishing the grid.
func (e *Engine) AnalyzeContext(ctx context.Context, log *dataset.Log) (*Report, error) {
	return e.AnalyzeWith(ctx, log, AnalyzeOptions{})
}

// AnalyzeOptions tunes one analysis. The zero value reproduces
// AnalyzeContext: no observer, a K-DB flush on completion. No option
// seeds the sweep (its one warm start is the recall stage's prior
// knowledge), and none picks the CPU budget, the sweep arena or the
// miners: every analysis runs on its engine's.
type AnalyzeOptions struct {
	// Observer, when non-nil, receives a StageEvent at every stage
	// start and finish — the scheduler's trace points — while the
	// analysis runs. Calls come from scheduler goroutines and stop
	// before AnalyzeWith returns; observers must not block.
	Observer StageObserver
	// NoFlush suppresses the per-analysis K-DB flush. A job service
	// sets it and flushes once per burst of completions instead: a
	// flush compacts the whole store, so one per analysis is waste.
	NoFlush bool
}

// AnalyzeWith is the single dispatch path every analysis funnels
// through: Analyze/AnalyzeContext call it with zero options, and the
// job service (internal/service) submits each admitted job here with
// the job's event observer. It runs the log through the stage graph
// on the engine's CPU budget, which every analysis on the engine and
// its WithConfig derivations shares: however many are in flight, at
// most Config.Parallelism goroutines compute at once. Their sweeps
// draw worker slabs from the engine's one arena, and their patterns
// stages borrow a miner (its FP-trees and transaction buffers) from the
// engine's free list; Reports are bit-for-bit identical to a fresh
// engine's.
func (e *Engine) AnalyzeWith(ctx context.Context, log *dataset.Log, opts AnalyzeOptions) (*Report, error) {
	if log.NumPatients() == 0 || log.NumRecords() == 0 {
		return nil, fmt.Errorf("core: log %q is empty", log.Name)
	}
	if err := log.Encoded().Check(); err != nil {
		return nil, fmt.Errorf("core: log %q: %w", log.Name, err)
	}
	s := &pipelineState{e: e, log: log, rep: &Report{}}
	sr, err := runDAG(ctx, pipeline, s, e.pool, e.cfg.StageTimeout, opts.Observer)
	if err != nil {
		return nil, err
	}
	s.rep.Stages = sr.traces
	s.rep.StageConcurrency = sr.maxConcurrent

	// Every acknowledged K-DB write is already on the WAL, so a failing
	// flush degrades the run (Report.Degraded) instead of discarding it.
	if !opts.NoFlush {
		if err := e.kdb.Flush(); err != nil {
			s.noteDegraded("flush", err)
		}
	}
	s.rep.Degraded = s.degradation()
	return s.rep, nil
}

// taxonomyOf derives the exam → category taxonomy from the catalog,
// the abstraction hierarchy the generalized pattern miner climbs.
func taxonomyOf(log *dataset.Log) fpm.Taxonomy {
	tax := fpm.Taxonomy{}
	for _, e := range log.Exams {
		if e.Category != "" {
			tax[e.Code] = "category:" + e.Category
		}
	}
	return tax
}
