package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"adahealth/internal/dataset"
	"adahealth/internal/endgoal"
	"adahealth/internal/fpm"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/ranking"
	"adahealth/internal/stats"
	"adahealth/internal/vsm"
)

// stage is one node of the analysis DAG: a named unit of pipeline work
// and the names of the stages it waits for. The scheduler calls run at
// most once, after every stage in after has completed, so a stage may
// read what those stages wrote to the pipelineState (or the Report)
// and write its own products without locking — the completion hand-off
// is the synchronization.
//
// To add a stage: write its body as an Engine method, add fields for
// its products to pipelineState or Report, and add a row to pipeline
// below every stage it waits for (a test holds the table to that
// order, which rules out cycles). The scheduler derives all
// concurrency from the after lists; no stage ever spells out "runs in
// parallel with X".
type stage struct {
	name  string
	after []string
	run   func(e *Engine, ctx context.Context, s *pipelineState) error
}

// pipelineState is the shared mutable state of one analysis run. The
// stage DAG's data edges are fields here (or in the Report): each
// field is written by exactly one stage and read only by stages that
// wait for it. Every stage may use the engine and read the input log
// without waiting for another.
type pipelineState struct {
	e   *Engine
	log *dataset.Log
	rep *Report

	matrix  *vsm.Matrix // produced by transform
	working *vsm.Matrix // produced by partialmine

	// recallHints is the recall stage's retrieved prior knowledge
	// (nil on a miss or when recall is disabled — the cold path).
	recallHints *recallHints

	// degradeMu guards the degradation notes below. Unlike the DAG's
	// data edges, these are appended by whichever stages hit a soft
	// K-DB failure, possibly concurrently.
	degradeMu      sync.Mutex
	droppedWrites  int
	degradeReasons []string
}

// noteDrop records a K-DB write the pipeline shed instead of failing
// the analysis — graceful degradation under a tripped or broken store.
func (s *pipelineState) noteDrop(what string, err error) {
	s.degradeMu.Lock()
	s.droppedWrites++
	s.degradeReasons = append(s.degradeReasons, fmt.Sprintf("%s: %v", what, err))
	s.degradeMu.Unlock()
}

// noteDegraded records a degradation that is not a dropped write (a
// recall read falling back, a shed flush).
func (s *pipelineState) noteDegraded(what string, err error) {
	s.degradeMu.Lock()
	s.degradeReasons = append(s.degradeReasons, fmt.Sprintf("%s: %v", what, err))
	s.degradeMu.Unlock()
}

// degradation finalizes Report.Degraded: nil on a fully healthy run;
// otherwise the drop count plus sorted, deduplicated reasons (stages
// note them in scheduling order, which is nondeterministic under the
// DAG).
func (s *pipelineState) degradation() *Degradation {
	s.degradeMu.Lock()
	defer s.degradeMu.Unlock()
	if s.droppedWrites == 0 && len(s.degradeReasons) == 0 {
		return nil
	}
	reasons := slices.Compact(slices.Sorted(slices.Values(s.degradeReasons)))
	return &Degradation{DroppedKDBWrites: s.droppedWrites, Reasons: reasons}
}

// pipeline is the built-in analysis DAG, each stage listed below the
// stages it waits for (the order of the paper's Figure 1 narrative):
//
//	characterize ─┬─ recall ──────────┐
//	transform → partialmine ──────────┴ sweep → cluster ┐
//	patterns ───────────────────────────────────────────┼→ store → endgoals
//	demand                                              └→ rank
//
// characterize, transform, patterns and demand are roots and run
// concurrently; recall overlaps transform and partialmine, sweep
// overlaps patterns, and rank and endgoals join the branches. store is
// the analysis's one K-DB write (descriptor and items), so an analysis
// that fails before it stores nothing. endgoals waits for the stored
// knowledge, not just the in-memory items, so the recommender sees this
// analysis's knowledge in the K-DB however the stages interleave.
var pipeline = []stage{
	{name: "characterize", run: (*Engine).runCharacterize},
	{name: "recall", after: []string{"characterize"}, run: (*Engine).runRecall},
	{name: "transform", run: (*Engine).runTransform},
	{name: "partialmine", after: []string{"transform"}, run: (*Engine).runPartial},
	{name: "sweep", after: []string{"partialmine", "recall"}, run: (*Engine).runSweep},
	{name: "cluster", after: []string{"partialmine", "sweep"}, run: (*Engine).runCluster},
	{name: "patterns", run: (*Engine).runPatterns},
	{name: "demand", run: (*Engine).runDemand},
	{name: "store-knowledge", after: []string{"characterize", "cluster", "patterns"}, run: (*Engine).runStoreKnowledge},
	{name: "endgoals", after: []string{"characterize", "store-knowledge"}, run: (*Engine).runEndGoals},
	{name: "rank", after: []string{"cluster", "patterns"}, run: (*Engine).runRank},
}

// --- stage bodies -----------------------------------------------------------

func (e *Engine) runCharacterize(ctx context.Context, s *pipelineState) error {
	s.rep.Descriptor = stats.Characterize(s.log)
	return nil
}

func (e *Engine) runTransform(ctx context.Context, s *pipelineState) error {
	matrix, err := vsm.Build(s.log, e.cfg.VSM)
	if err != nil {
		return fmt.Errorf("transforming: %w", err)
	}
	s.matrix = matrix
	s.rep.Transformed = TransformedSummary{
		Dataset:     s.log.Name,
		Weighting:   e.cfg.VSM.Weighting.String(),
		Norm:        e.cfg.VSM.Normalization.String(),
		NumRows:     matrix.NumRows(),
		NumFeatures: matrix.NumFeatures(),
		Sparsity:    matrix.Sparsity(),
		Features:    matrix.Features,
	}
	return nil
}

func (e *Engine) runPartial(ctx context.Context, s *pipelineState) error {
	cfg := e.cfg.Partial
	cfg.Budget = e.pool
	pres, working, err := partial.SelectHorizontal(ctx, s.matrix, cfg)
	if err != nil {
		return wrapStageErr(ctx, "partial mining", err)
	}
	s.rep.Partial = pres
	s.rep.SelectedSubset = pres.SelectedStep().NumFeatures
	s.working = working
	return nil
}

func (e *Engine) runSweep(ctx context.Context, s *pipelineState) error {
	// A recall hit specializes a copy of the sweep configuration:
	// prior Ks narrow the grid, and the best source's centroids —
	// remapped onto the working matrix's feature space — seed the
	// warm chain. Without hints (a miss, or recall disabled) the
	// configuration passes through untouched: the cold path is
	// bit-for-bit the pre-recall pipeline.
	cfg := e.cfg.Sweep
	cfg.Budget, cfg.Arena = e.pool, e.arena
	if s.recallHints != nil {
		cfg = applyRecallHints(cfg, s.recallHints, s.working.Features, s.rep.Recall)
	}
	sweep, err := optimize.SweepMatrix(ctx, s.working, cfg)
	if err != nil {
		return wrapStageErr(ctx, "optimizing", err)
	}
	s.rep.Sweep = sweep
	return nil
}

func (e *Engine) runCluster(ctx context.Context, s *pipelineState) error {
	// The sweep hands over the fitted model its BestK row was scored
	// on (set whenever the sweep succeeds); re-clustering would both
	// duplicate the work and — under the default warm-started sweep,
	// whose BestK model is the product of the whole ascending chain —
	// select a different local optimum than the one the optimizer
	// actually ranked best.
	s.rep.BestClustering = s.rep.Sweep.BestClustering
	s.rep.ClusterItems = knowledge.FromClusterResult(s.log.Name, s.rep.BestClustering, s.working.Features, 5)
	return nil
}

func (e *Engine) runPatterns(ctx context.Context, s *pipelineState) error {
	// The visit baskets come straight from the log's encoding: exam
	// keys, already grouped and de-duplicated. The miner hashes each
	// exam code once, never a visit's items.
	enc := s.log.Encoded()
	numTx := enc.NumVisits()
	minSupport := int(e.cfg.MinSupportFrac * float64(numTx))
	if minSupport < 2 {
		minSupport = 2
	}
	// The miner's trees and transaction buffers come from the engine's
	// free list. It goes back only after a run that returned: one a
	// panic interrupted is left to the collector.
	m := e.miners.Get()
	if m == nil {
		m = new(fpm.Miner)
	}
	flat, err := m.Mine(ctx, enc.ExamCodes, enc.VisitPtr, enc.VisitExams, taxonomyOf(s.log), minSupport)
	e.miners.Put(m)
	if err != nil {
		return wrapStageErr(ctx, "pattern mining", err)
	}
	s.rep.PatternItems = knowledge.FromItemsets(s.log.Name, flat, numTx)
	if len(s.rep.PatternItems) > e.cfg.MaxPatternItems {
		s.rep.PatternItems = s.rep.PatternItems[:e.cfg.MaxPatternItems]
	}
	rules, err := fpm.Rules(flat, numTx, e.cfg.MinConfidence)
	if err != nil {
		return fmt.Errorf("rule derivation: %w", err)
	}
	if len(rules) > e.cfg.MaxPatternItems {
		rules = rules[:e.cfg.MaxPatternItems]
	}
	s.rep.RuleItems = knowledge.FromRules(s.log.Name, rules)
	return nil
}

func (e *Engine) runDemand(ctx context.Context, s *pipelineState) error {
	s.rep.Demand = stats.MonthlyDemand(s.log)
	return nil
}

func (e *Engine) runStoreKnowledge(ctx context.Context, s *pipelineState) error {
	if err := e.kdb.StoreAnalysis(s.rep.Descriptor, s.allItems()); err != nil {
		// Soft: the descriptor and the extracted knowledge are still in
		// the Report; only their persistence for future analyses was
		// shed.
		s.noteDrop("store analysis", err)
	}
	return nil
}

func (e *Engine) runEndGoals(ctx context.Context, s *pipelineState) error {
	recs, err := endgoal.NewRecommender(e.kdb).Recommend(s.rep.Descriptor)
	if err != nil {
		// A refusing K-DB (offline or read-only) degrades to no
		// recommendations; any other recommender failure is a real
		// pipeline error.
		if errors.Is(err, kdb.ErrOffline) || errors.Is(err, kdb.ErrReadOnly) {
			s.noteDegraded("endgoals", err)
			return nil
		}
		return fmt.Errorf("recommending end-goals: %w", err)
	}
	s.rep.Recommendations = recs
	return nil
}

func (e *Engine) runRank(ctx context.Context, s *pipelineState) error {
	s.rep.Ranked = ranking.NewRanker().Rank(s.allItems())
	return nil
}

// allItems concatenates the extracted knowledge in the fixed
// presentation order (cluster, pattern, rule) both the store and the
// ranker consume.
func (s *pipelineState) allItems() []knowledge.Item {
	rep := s.rep
	all := make([]knowledge.Item, 0,
		len(rep.ClusterItems)+len(rep.PatternItems)+len(rep.RuleItems))
	all = append(all, rep.ClusterItems...)
	all = append(all, rep.PatternItems...)
	all = append(all, rep.RuleItems...)
	return all
}

// wrapStageErr annotates a stage failure unless it is the (possibly
// wrapped by neither) context error, which must surface unwrapped so
// callers can errors.Is-match cancellation.
func wrapStageErr(ctx context.Context, what string, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("%s: %w", what, err)
}
