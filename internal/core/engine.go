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
// The pipeline is an explicit stage DAG (see Stage): each stage
// declares the state keys it consumes and produces, and a scheduler
// topologically orders the stages and runs independent ones
// concurrently on a bounded worker pool — pattern mining overlaps the
// K-sweep, demand extraction overlaps clustering. Cancellation is
// threaded through every compute kernel via context.Context, per-stage
// wall-time and allocation metrics land in Report.Stages and the
// K-DB's stage_traces collection, and AnalyzeMany batches several logs
// over one shared pool. Each stage runs once, with panic isolation and
// an optional deadline (Config.StageTimeout). The Report does not
// depend on how stages interleave: Parallelism 1 runs them one at a
// time and produces a bit-for-bit identical Report.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"adahealth/internal/classify"
	"adahealth/internal/cluster"
	"adahealth/internal/dataset"
	"adahealth/internal/endgoal"
	"adahealth/internal/fpm"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
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
	// Parallelism bounds how many stages run concurrently — one pool
	// shared across all logs of an AnalyzeMany call (or all jobs of a
	// service), so batch analysis does not oversubscribe the machine;
	// 0 uses all cores (runtime.GOMAXPROCS(0)), 1 runs stages one at a
	// time, negative is rejected by Validate.
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

// Engine is the ADA-HEALTH automated analysis engine.
type Engine struct {
	cfg      Config
	kdb      *kdb.KDB
	txc      *txCache
	inflight *inflightSet
}

// inflightSet tracks the dataset names of analyses currently
// executing against the shared K-DB. The recall stage consults it so
// that concurrent analyses (an AnalyzeMany batch, parallel service
// jobs) never read each other's mid-flight writes — which would make
// batch results depend on scheduling — while a serial repeat analysis
// still recalls its own history. Shared across WithConfig derivations,
// like the K-DB itself.
type inflightSet struct {
	mu    sync.Mutex
	names map[string]int
}

func newInflightSet() *inflightSet { return &inflightSet{names: map[string]int{}} }

func (s *inflightSet) add(name string) {
	s.mu.Lock()
	s.names[name]++
	s.mu.Unlock()
}

func (s *inflightSet) remove(name string) {
	s.mu.Lock()
	if s.names[name]--; s.names[name] <= 0 {
		delete(s.names, name)
	}
	s.mu.Unlock()
}

func (s *inflightSet) count(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.names[name]
}

// New builds an engine, opening (or creating) its knowledge base. The
// configuration is validated first (see Config.Validate); a rejected
// configuration returns a descriptive error instead of silently
// defaulting.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	k, err := kdb.Open(cfg.KDBDir)
	if err != nil {
		return nil, fmt.Errorf("core: opening K-DB: %w", err)
	}
	return &Engine{cfg: cfg, kdb: k, txc: newTxCache(), inflight: newInflightSet()}, nil
}

// NewWithKDB builds an engine over an already-open K-DB, which the
// caller keeps owning (Close it after the engine is done). It is the
// seam fault-injection tests use to run the pipeline against a K-DB
// opened over a faulty filesystem (kdb.OpenStore with
// docstore.Options.FS); Config.KDBDir is ignored.
func NewWithKDB(cfg Config, k *kdb.KDB) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{cfg: cfg.withDefaults(), kdb: k, txc: newTxCache(), inflight: newInflightSet()}, nil
}

// WithConfig returns a derived engine that analyzes under cfg but
// shares this engine's knowledge base and transaction cache. It is how
// a long-running service runs per-job configuration overrides (seed,
// thresholds, sweep grid) without opening a second K-DB. The override
// is validated like New validates; KDBDir is ignored — the K-DB is
// inherited.
func (e *Engine) WithConfig(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.KDBDir = e.cfg.KDBDir
	return &Engine{cfg: cfg.withDefaults(), kdb: e.kdb, txc: e.txc, inflight: e.inflight}, nil
}

// Config returns the engine's resolved configuration (defaults filled
// in).
func (e *Engine) Config() Config { return e.cfg }

// KDB exposes the engine's knowledge base (feedback recording,
// inspection).
func (e *Engine) KDB() *kdb.KDB { return e.kdb }

// StageParallelism reports the resolved stage-pool size
// (Config.Parallelism, or all cores when unset).
func (e *Engine) StageParallelism() int { return e.parallelism() }

// ReleaseLog drops the engine's cached per-log state (the patterns
// stage's transaction encoding). Long-running callers that know a log
// will not be re-analyzed — the job service, once a submission's last
// job finishes — call this so request-scoped logs do not stay pinned
// in memory until cache eviction. Releasing a log that is mid-analysis
// is safe: the analysis keeps its reference and a later re-analysis
// simply rebuilds.
func (e *Engine) ReleaseLog(log *dataset.Log) { e.txc.release(log) }

// CachedLogs reports how many logs currently hold cached per-log state
// (observability: the daemon's memory footprint tracks this).
func (e *Engine) CachedLogs() int { return e.txc.size() }

// Report is the complete outcome of one automated analysis.
type Report struct {
	Descriptor      stats.Descriptor
	Transformed     kdb.TransformedSummary
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
	// which stages actually ran concurrently. The same traces are
	// persisted to the K-DB's stage_traces collection.
	Stages []kdb.StageTrace
	// StageConcurrency is the maximum number of stages the scheduler
	// observed running at the same instant (1 when Parallelism is 1).
	StageConcurrency int

	// Degraded is non-nil when the analysis completed without its full
	// K-DB contract — see Degradation. Nil on a fully healthy run.
	Degraded *Degradation `json:"degraded,omitempty"`
}

// Degradation reports that an analysis completed gracefully degraded:
// K-DB writes were dropped or the recall read fell back because the
// knowledge store was read-only, offline, or broken. The analytical
// results themselves are complete and correct — only the
// self-learning side effects (stored knowledge, feedback, traces,
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

// StagePool is a bounded counting semaphore shared by concurrently
// executing analyses: every running stage holds one slot, so however
// many analyses are in flight, at most cap(pool) stages execute at
// once. AnalyzeMany sizes one from Config.Parallelism; a long-running
// service creates one at startup and passes it to every job's
// AnalyzeWith.
type StagePool chan struct{}

// NewStagePool builds a stage pool admitting n concurrent stages
// (n < 1 uses all cores).
func NewStagePool(n int) StagePool {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return make(StagePool, n)
}

// AnalyzeOptions tunes one shared-dispatch analysis. The zero value
// reproduces AnalyzeContext: a private pool, no observer, a K-DB flush
// on completion.
type AnalyzeOptions struct {
	// Pool is the stage pool this analysis shares with its siblings
	// (nil = a private pool sized by Config.Parallelism).
	Pool StagePool
	// Observer, when non-nil, receives a StageEvent at every stage
	// start and finish — the scheduler's trace points — while the
	// analysis runs. Calls come from scheduler goroutines and stop
	// before AnalyzeWith returns; observers must not block.
	Observer StageObserver
	// NoFlush suppresses the per-analysis K-DB flush. Batch callers
	// (AnalyzeMany, a job service) set it and flush once themselves:
	// concurrent flushes would race on the docstore's snapshot files.
	NoFlush bool
	// FairShare, when > 0, derates the analysis's inner sweep and
	// partial-mining parallelism to a 1/FairShare share of the stage
	// pool and pins the K-means kernels serial — the batch fairness
	// rule AnalyzeMany applies with FairShare = len(logs), and a
	// service applies with its worker count (even a 1-slot service
	// sets it: the stage pool and sweep pool already carry the
	// concurrency, so the kernels must not also fan out to all
	// cores). Sweep results are identical for every worker count, so
	// this only affects scheduling. 0 leaves the kernels free to use
	// the whole machine, as a lone Analyze call should.
	FairShare int
	// Arena, when non-nil, lends the analysis's K sweep its reusable
	// worker slabs (decision trees, cluster scratch, RNGs) so a
	// long-lived caller stops paying those allocations on every job.
	// Reports are bit-for-bit identical with or without it. Safe to
	// share across concurrent analyses — checkout is per sweep worker
	// (see optimize.Arena) — but an explicitly configured
	// Config.Sweep.Arena takes precedence.
	Arena *optimize.Arena
	// SeedCentroids, with SeedFeatures naming their columns by exam
	// code, warm-starts the K sweep from caller-provided centroids —
	// the streaming layer passes its live online model here when a
	// drift-triggered full re-analysis is scheduled. The rows are
	// remapped onto the analysis's own (possibly projected) feature
	// space by exam code and take precedence over recall-stage seeds;
	// they seed the warm-started sweep chain and are dropped when fewer
	// than half of the seed features survive the remap, falling back
	// to the recall/cold behaviour. Any row count works: the sweep
	// completes short seed sets by farthest-point splits and
	// truncates long ones (see optimize.SweepConfig.SeedCentroids).
	SeedCentroids [][]float64
	// SeedFeatures are the exam codes labelling SeedCentroids'
	// columns. Required when SeedCentroids is set.
	SeedFeatures []string
}

// AnalyzeWith is the single dispatch path every analysis funnels
// through: Analyze/AnalyzeContext call it with zero options,
// AnalyzeMany fans a batch out over one shared pool, and the job
// service (internal/service) submits each admitted job here with its
// own pool and event observer.
func (e *Engine) AnalyzeWith(ctx context.Context, log *dataset.Log, opts AnalyzeOptions) (*Report, error) {
	if log != nil {
		// The DAG's root stages read the log concurrently; build its
		// lazy lookup tables before any of them race to do it. (Callers
		// running concurrent AnalyzeWith calls on one log pointer must
		// index it before fanning out, as AnalyzeMany does.)
		log.EnsureIndexes()
	}
	be := e
	if opts.FairShare > 0 {
		be = e.derated(opts.FairShare)
	}
	// Mark the dataset in flight for the recall stage's concurrent-
	// sibling exclusion (see inflightSet).
	if log != nil {
		e.inflight.add(log.Name)
		defer e.inflight.remove(log.Name)
	}
	return be.analyze(ctx, log, opts)
}

// derated returns a copy of the engine whose inner sweep and
// partial-mining parallelism is reduced to a fair 1/n share of the
// stage pool, so n concurrent analyses do not each fan their kernels
// out to GOMAXPROCS workers on top of the stage-level concurrency.
// Explicitly pinned values are left alone.
func (e *Engine) derated(n int) *Engine {
	be := *e
	if be.cfg.Sweep.Parallelism <= 0 {
		be.cfg.Sweep.Parallelism = e.parallelism() / n
		if be.cfg.Sweep.Parallelism < 1 {
			be.cfg.Sweep.Parallelism = 1
		}
		if be.cfg.Sweep.Cluster.Parallelism == 0 {
			// The stage pool and the sweep pool already carry the
			// batch concurrency; keep the K-means kernel serial.
			be.cfg.Sweep.Cluster.Parallelism = 1
		}
	}
	if be.cfg.Partial.Cluster.Parallelism == 0 {
		// Same for the partial-mining probe runs: concurrent
		// partialmine stages must not each fan the kernel out to
		// GOMAXPROCS workers.
		be.cfg.Partial.Cluster.Parallelism = 1
	}
	return &be
}

// AnalyzeMany analyzes several logs as one batch sharing a single
// bounded stage pool, so concurrent logs interleave their independent
// stages instead of oversubscribing the machine with len(logs) full
// pipelines. When Sweep.Parallelism is unset, each log's K sweep is
// additionally derated to its fair share of the pool, so the batch's
// total compute fan-out stays at roughly Config.Parallelism (sweep
// results are identical for every worker count, so this only affects
// scheduling). Reports are returned in input order. On failure the
// remaining work is cancelled and the first error (preferring a stage
// failure over a cancellation victim) is returned alongside the
// reports that did complete.
//
// Reports are deterministic per log with one caveat: the end-goal
// recommender reads the whole shared K-DB, so once feedback exists for
// a dataset, a batch re-analysis may train its interest model before
// or after a sibling log's descriptor lands — serialize analyses of
// feedback-bearing datasets if byte-stable recommendations matter.
// The recall stage is deterministic by construction: every batch
// member registers as in flight before the fan-out, so no member ever
// recalls a sibling's (or, in a batch, its own) mid-flight knowledge
// regardless of completion order.
func (e *Engine) AnalyzeMany(ctx context.Context, logs []*dataset.Log) ([]*Report, error) {
	if len(logs) == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	pool := NewStagePool(e.parallelism())

	// Each log is one shared-dispatch analysis: one stage pool, batch
	// fair-share derating, flush deferred to the single batch flush
	// below (per-log flushes from concurrent goroutines would race on
	// the docstore's snapshot temp files).
	opts := AnalyzeOptions{Pool: pool, NoFlush: true, FairShare: len(logs)}
	// Index every log serially before fanning out: a log submitted
	// twice in one batch would otherwise have two goroutines racing to
	// build its lazy lookup tables. Registering every batch member as
	// in flight up front (before any analysis can run its recall
	// stage) is what makes batch recall deterministic: no member ever
	// recalls a sibling, regardless of completion order.
	for _, log := range logs {
		log.EnsureIndexes()
		e.inflight.add(log.Name)
	}
	defer func() {
		for _, log := range logs {
			e.inflight.remove(log.Name)
		}
	}()
	reports := make([]*Report, len(logs))
	errs := make([]error, len(logs))
	var wg sync.WaitGroup
	for i, log := range logs {
		wg.Add(1)
		go func(i int, log *dataset.Log) {
			defer wg.Done()
			rep, err := e.AnalyzeWith(ctx, log, opts)
			reports[i], errs[i] = rep, err
			if err != nil {
				cancel() // fail fast: stop sibling analyses
			}
		}(i, log)
	}
	wg.Wait()
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			firstErr = err // the root failure, not a cancellation victim
			break
		}
	}
	// One flush for the whole batch, after every writer goroutine has
	// finished — persist completed analyses even when a sibling failed.
	if err := e.kdb.Flush(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("core: flushing K-DB: %w", err)
	}
	return reports, firstErr
}

// analyze runs one log through the stage graph. opts.Pool is the
// shared stage semaphore (nil = private pool sized by
// Config.Parallelism); opts.NoFlush defers the K-DB flush to the
// caller (AnalyzeMany runs one batch-level flush so concurrent
// snapshot writes cannot tear); opts.Observer, when non-nil, receives
// stage start/finish events live; opts.Arena backs the sweep stage's
// worker slabs; opts.SeedCentroids/SeedFeatures warm-start the sweep.
func (e *Engine) analyze(ctx context.Context, log *dataset.Log, opts AnalyzeOptions) (*Report, error) {
	if log.NumPatients() == 0 || log.NumRecords() == 0 {
		return nil, fmt.Errorf("core: log %q is empty", log.Name)
	}
	stages := e.pipelineStages()
	if err := validateStages(stages); err != nil {
		return nil, err
	}
	s := &pipelineState{
		log:           log,
		rep:           &Report{},
		arena:         opts.Arena,
		seedCentroids: opts.SeedCentroids,
		seedFeatures:  opts.SeedFeatures,
	}
	pool := opts.Pool
	if pool == nil {
		pool = NewStagePool(e.parallelism())
	}
	sr, err := runDAG(ctx, stages, s, pool, e.cfg.StageTimeout, opts.Observer)
	if err != nil {
		return nil, err
	}
	s.rep.Stages = sr.traces
	s.rep.StageConcurrency = sr.maxConcurrent

	// Telemetry and durability are soft from here on: the analysis
	// already produced its results, and every acknowledged K-DB write
	// is on the WAL — a failing trace store or flush degrades the run
	// (recorded in Report.Degraded) instead of discarding it.
	if err := e.kdb.StoreStageTraces(sr.traces); err != nil {
		s.noteDrop("store stage traces", err)
	}
	if !opts.NoFlush {
		if err := e.kdb.Flush(); err != nil {
			s.noteDegraded("flush", err)
		}
	}
	s.rep.Degraded = s.degradation()
	return s.rep, nil
}

// parallelism resolves the stage-pool size.
func (e *Engine) parallelism() int {
	if e.cfg.Parallelism > 0 {
		return e.cfg.Parallelism
	}
	return runtime.GOMAXPROCS(0)
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

// RobustnessFactory returns the classifier factory the optimization
// component uses; exposed so callers can reproduce individual Table I
// rows outside a full sweep.
func RobustnessFactory(opts classify.TreeOptions) classify.Factory {
	return func() classify.Classifier { return classify.NewDecisionTree(opts) }
}
