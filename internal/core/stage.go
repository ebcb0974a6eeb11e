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

// Stage is one node of the analysis DAG: a named unit of pipeline work
// with declared data dependencies. Inputs and Outputs are symbolic
// state keys (the key* constants): a stage becomes runnable once every
// stage producing one of its Inputs has completed, and its Outputs in
// turn unblock downstream stages. The scheduler guarantees that Run is
// called at most once, after all producers of its Inputs finished, so
// a stage may read the pipelineState fields behind its declared inputs
// and write the fields behind its declared outputs without locking —
// the completion hand-off is the synchronization.
//
// To add a stage: pick a name, declare which keys it consumes and
// which it produces (introducing new key* constants for new
// intermediate data), add fields for its products to pipelineState or
// Report, and append it to pipelineStages. Declaration order in
// pipelineStages must remain a valid topological order — every input
// produced by an earlier stage — which is how validateStages rules out
// cycles at construction. The scheduler derives all concurrency from
// the declared keys; no stage ever spells out "runs in parallel with
// X".
type Stage interface {
	// Name identifies the stage in traces and error messages.
	Name() string
	// Inputs lists the state keys the stage consumes.
	Inputs() []string
	// Outputs lists the state keys the stage produces.
	Outputs() []string
	// Run executes the stage. It must honour ctx for long work and
	// must only touch state covered by its declared inputs/outputs.
	Run(ctx context.Context, s *pipelineState) error
}

// State keys wiring the built-in pipeline DAG.
const (
	keyDescriptor = "descriptor"      // statistical characterization
	keyRecall     = "recall"          // prior-knowledge hints recalled from the K-DB
	keyMatrix     = "matrix"          // VSM-transformed patient matrix
	keyWorking    = "working"         // partial-mining projection of the matrix
	keySweep      = "sweep"           // Table I K-optimization result
	keyClustering = "clustering"      // final clustering + cluster knowledge items
	keyPatterns   = "patterns"        // pattern + rule knowledge items
	keyDemand     = "demand"          // monthly demand series
	keyKnowledge  = "knowledge"       // descriptor + knowledge items persisted to the K-DB
	keyEndGoals   = "recommendations" // end-goal recommendations
	keyRanked     = "ranked"          // final ranked knowledge list
)

// pipelineState is the shared mutable state of one analysis run. The
// stage DAG's data edges are fields here (or in the Report): each
// field is written by exactly one stage and read only by stages that
// declare the corresponding key as input. The input log is immutable
// and readable by every stage without a key.
type pipelineState struct {
	log *dataset.Log
	rep *Report

	matrix  *vsm.Matrix // produced by transform
	working *vsm.Matrix // produced by partialmine

	// recallHints is the recall stage's retrieved prior knowledge
	// (nil on a miss or when recall is disabled — the cold path).
	recallHints *recallHints

	// degradeMu guards the degradation notes below. Unlike the keyed
	// DAG state, these are appended by whichever stages hit a soft
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

// funcStage is the Stage implementation used by the built-in pipeline:
// a name, declared keys, and a closure.
type funcStage struct {
	name    string
	inputs  []string
	outputs []string
	run     func(ctx context.Context, s *pipelineState) error
}

func (f *funcStage) Name() string      { return f.name }
func (f *funcStage) Inputs() []string  { return f.inputs }
func (f *funcStage) Outputs() []string { return f.outputs }
func (f *funcStage) Run(ctx context.Context, s *pipelineState) error {
	return f.run(ctx, s)
}

// pipelineStages returns the built-in analysis DAG in a topologically
// valid declaration order (the order of the paper's Figure 1
// narrative):
//
//	characterize ─┬─ recall ──────────┐
//	transform → partialmine ──────────┴ sweep → cluster ┐
//	patterns ───────────────────────────────────────────┼→ store → endgoals
//	demand                                              └→ rank
//
// characterize, transform, patterns and demand are roots and run
// concurrently; sweep overlaps with patterns; rank and endgoals join
// the branches. store is the analysis's one K-DB write (descriptor and
// items), so an analysis that fails before it stores nothing.
func (e *Engine) pipelineStages() []Stage {
	return []Stage{
		&funcStage{
			name:    "characterize",
			outputs: []string{keyDescriptor},
			run:     e.runCharacterize,
		},
		&funcStage{
			// recall retrieves prior knowledge of statistically
			// similar datasets from the K-DB; it overlaps transform
			// and partialmine, and the sweep consumes its hints.
			name:    "recall",
			inputs:  []string{keyDescriptor},
			outputs: []string{keyRecall},
			run:     e.runRecall,
		},
		&funcStage{
			name:    "transform",
			outputs: []string{keyMatrix},
			run:     e.runTransform,
		},
		&funcStage{
			name:    "partialmine",
			inputs:  []string{keyMatrix},
			outputs: []string{keyWorking},
			run:     e.runPartial,
		},
		&funcStage{
			name:    "sweep",
			inputs:  []string{keyWorking, keyRecall},
			outputs: []string{keySweep},
			run:     e.runSweep,
		},
		&funcStage{
			name:    "cluster",
			inputs:  []string{keyWorking, keySweep},
			outputs: []string{keyClustering},
			run:     e.runCluster,
		},
		&funcStage{
			name:    "patterns",
			outputs: []string{keyPatterns},
			run:     e.runPatterns,
		},
		&funcStage{
			name:    "demand",
			outputs: []string{keyDemand},
			run:     e.runDemand,
		},
		&funcStage{
			name:    "store-knowledge",
			inputs:  []string{keyDescriptor, keyClustering, keyPatterns},
			outputs: []string{keyKnowledge},
			run:     e.runStoreKnowledge,
		},
		&funcStage{
			// endgoals consumes the stored knowledge (not just the
			// in-memory items) so the recommender sees this analysis's
			// knowledge in the K-DB, however the stages interleave.
			name:    "endgoals",
			inputs:  []string{keyDescriptor, keyKnowledge},
			outputs: []string{keyEndGoals},
			run:     e.runEndGoals,
		},
		&funcStage{
			name:    "rank",
			inputs:  []string{keyClustering, keyPatterns},
			outputs: []string{keyRanked},
			run:     e.runRank,
		},
	}
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
	// The fpm miners carry no context; cancellation is honoured at the
	// phase boundaries (before mining and before rule derivation), the
	// coarsest granularity in the pipeline.
	if err := ctx.Err(); err != nil {
		return err
	}
	// The visit baskets come straight from the log's encoding: exam
	// keys, already grouped and de-duplicated, with no string hashed.
	enc := s.log.Encoded()
	tax := taxonomyOf(s.log)
	ext := tax.ExtendEncoded(fpm.EncodeTransactions(enc.ExamCodes, enc.VisitPtr, enc.VisitExams))
	numTx := enc.NumVisits()
	minSupport := int(e.cfg.MinSupportFrac * float64(numTx))
	if minSupport < 2 {
		minSupport = 2
	}
	gsets, err := fpm.MineGeneralizedEncoded(ext, tax, minSupport)
	if err != nil {
		return fmt.Errorf("pattern mining: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	flat := make([]fpm.Itemset, 0, len(gsets))
	for _, g := range gsets {
		flat = append(flat, g.Itemset)
	}
	fpm.SortItemsets(flat)
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
