package core

import (
	"context"
	"sort"

	"adahealth/internal/obs"
	"adahealth/internal/optimize"
)

// recallTotal counts recall outcomes (see the metric-name reference in
// package obs); Report.Recall carries each job's own. Its three series
// exist from package init, so the first scrape shows them.
var (
	recallTotal = obs.Default().CounterVec("core_recall_total",
		"Recall-stage outcomes: hit, miss, or fallback (the K-DB could not be read).", "outcome")
	recallHit      = recallTotal.With("hit")
	recallMiss     = recallTotal.With("miss")
	recallFallback = recallTotal.With("fallback")
)

// RecallConfig tunes the recall stage: the paper's self-learning loop,
// where the K-DB's accumulated experience drives new analyses. The
// zero value is the documented default (recall on, similarity 0.9,
// at most 3 source datasets).
type RecallConfig struct {
	// Disabled turns the stage into a no-op (the analysis runs exactly
	// as if the K-DB held no prior knowledge).
	Disabled bool
	// MinSimilarity is the descriptor-similarity threshold a stored
	// dataset must reach to count as "statistically similar"
	// (kdb.DescriptorSimilarity, in [0, 1]; 0 selects the 0.9 default).
	MinSimilarity float64
	// MaxSources bounds how many similar datasets contribute prior
	// knowledge (0 selects the default of 3).
	MaxSources int
}

func (c RecallConfig) withDefaults() RecallConfig {
	if c.MinSimilarity == 0 {
		c.MinSimilarity = 0.9
	}
	if c.MaxSources <= 0 {
		c.MaxSources = 3
	}
	return c
}

// RecallSource is one prior dataset whose knowledge warm-starts this
// analysis.
type RecallSource struct {
	// Dataset is the similar dataset's name.
	Dataset string `json:"dataset"`
	// Similarity is the descriptor similarity to this analysis.
	Similarity float64 `json:"similarity"`
	// Ks are the cluster counts its stored cluster-set items selected.
	Ks []int `json:"ks,omitempty"`
}

// RecallOutcome reports what the recall stage retrieved and how it was
// used — the Report's evidence of the self-learning loop closing.
type RecallOutcome struct {
	// Hit is true when prior knowledge was found and applied.
	Hit bool `json:"hit"`
	// Sources lists the contributing datasets, most similar first.
	Sources []RecallSource `json:"sources,omitempty"`
	// PriorKs is the union of cluster counts past analyses selected.
	PriorKs []int `json:"prior_ks,omitempty"`
	// NarrowedKs is the sweep grid actually evaluated after narrowing
	// around PriorKs (empty on a miss: the full grid ran).
	NarrowedKs []int `json:"narrowed_ks,omitempty"`
	// SeedDataset is the source whose centroids seeded the sweep
	// chain ("" when no centroid seeding happened).
	SeedDataset string `json:"seed_dataset,omitempty"`
	// SeededCentroids is how many centroid rows were remapped onto
	// this dataset's feature space.
	SeededCentroids int `json:"seeded_centroids,omitempty"`
	// Fallback is set when recall could not read the K-DB (offline or
	// broken) and degraded to the cold path — the analysis then runs
	// bit-for-bit as if the K-DB held no prior knowledge. Empty on a
	// healthy run (hit or honest miss).
	Fallback string `json:"fallback,omitempty"`
}

// recallHints is the recall stage's hand-off to the sweep stage:
// retrieved prior knowledge, not yet adapted to the working matrix
// (feature remapping needs the partial-mining projection, which does
// not exist when recall runs).
type recallHints struct {
	priorKs     []int
	seedDataset string
	centroids   [][]float64
	features    []string
}

// runRecall retrieves prior knowledge for statistically similar
// datasets from the K-DB and stages it for the sweep. A miss leaves
// the pipeline configuration untouched — the cold path is bit-for-bit
// the pre-recall behaviour. Every outcome counts in core_recall_total,
// so the fleet view shows how often the K-DB's memory pays off.
func (e *Engine) runRecall(ctx context.Context, s *pipelineState) error {
	cfg := e.cfg.Recall.withDefaults()
	if cfg.Disabled {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// Rank everything (limit 0): MaxSources bounds datasets that
	// actually contribute knowledge, so descriptor-only entries (a live
	// registration, or an older build's failed analysis) or in-flight
	// siblings must not occupy the slots of usable sources ranked below
	// them. This analysis's own descriptor is not stored yet.
	hits, err := e.kdb.SimilarDatasets(s.rep.Descriptor, "", 0)
	if err != nil {
		// Soft: a K-DB that cannot be read degrades recall to the cold
		// path — bit-for-bit the pipeline with no prior knowledge —
		// instead of failing the analysis. Recall is an accelerator;
		// losing it must never lose the run.
		s.rep.Recall = &RecallOutcome{Fallback: err.Error()}
		s.noteDegraded("recall", err)
		recallFallback.Inc()
		return nil
	}
	outcome := &RecallOutcome{}
	s.rep.Recall = outcome

	var hints recallHints
	bestSeedSim := 0.0
	kSet := map[int]bool{}
	for _, hit := range hits {
		if hit.Similarity < cfg.MinSimilarity {
			break // hits are sorted; the rest score lower still
		}
		if len(outcome.Sources) >= cfg.MaxSources {
			break
		}
		// Skip datasets currently being analyzed against this K-DB: a
		// concurrent sibling's half-written knowledge must not leak in
		// (it would depend on how far the sibling got). The one
		// in-flight registration that is this analysis itself does not
		// hide the dataset's own history — a serial repeat analysis is
		// exactly the self-learning case.
		if n := e.inflight.count(hit.Dataset); n > 0 &&
			(hit.Dataset != s.log.Name || n > 1) {
			continue
		}
		items, err := e.kdb.ClusterSets(hit.Dataset)
		if err != nil {
			// A poison cluster set (foreign schema, hand edit) under one
			// dataset must not permanently fail every analysis that
			// ranks it similar — recall is an accelerator, so skip the
			// dataset and keep looking.
			continue
		}
		src := RecallSource{Dataset: hit.Dataset, Similarity: hit.Similarity}
		for _, it := range items {
			k := int(it.Metrics["k"])
			if k >= 2 {
				src.Ks = append(src.Ks, k)
				kSet[k] = true
			}
			if len(it.Centroids) > 0 && len(it.Features) > 0 && hit.Similarity > bestSeedSim {
				bestSeedSim = hit.Similarity
				hints.seedDataset = it.Dataset
				hints.centroids = it.Centroids
				hints.features = it.Features
			}
		}
		if len(src.Ks) > 0 {
			sort.Ints(src.Ks)
			outcome.Sources = append(outcome.Sources, src)
		}
	}

	if len(kSet) == 0 {
		// Miss: no similar dataset has produced cluster knowledge yet.
		recallMiss.Inc()
		return nil
	}
	for k := range kSet {
		hints.priorKs = append(hints.priorKs, k)
	}
	sort.Ints(hints.priorKs)
	outcome.Hit = true
	outcome.PriorKs = hints.priorKs
	outcome.SeedDataset = hints.seedDataset
	s.recallHints = &hints
	recallHit.Inc()
	return nil
}

// applyRecallHints specializes a sweep configuration with retrieved
// prior knowledge: the K grid narrows to the neighbourhood of the Ks
// similar datasets selected, and the best source's centroids —
// remapped by feature (exam-code) name onto the working matrix — seed
// the warm-started chain. Called by the sweep stage with the analysis'
// working matrix features; cfg is a copy, the engine's configuration
// is never mutated.
func applyRecallHints(cfg optimize.SweepConfig, hints *recallHints, features []string, outcome *RecallOutcome) optimize.SweepConfig {
	// Materialize the default grid before narrowing, so narrowing
	// composes with an unset Ks the same way the sweep itself would.
	grid := cfg.Ks
	if len(grid) == 0 {
		grid = optimize.DefaultKs()
	}
	if narrowed := narrowGrid(grid, hints.priorKs); len(narrowed) > 0 && len(narrowed) < len(grid) {
		cfg.Ks = narrowed
		outcome.NarrowedKs = narrowed
	}
	if len(hints.centroids) > 0 {
		if seeds := remapCentroids(hints.centroids, hints.features, features); seeds != nil {
			cfg.SeedCentroids = seeds
			outcome.SeededCentroids = len(seeds)
		} else {
			outcome.SeedDataset = ""
		}
	} else {
		outcome.SeedDataset = ""
	}
	return cfg
}

// narrowGrid keeps the grid values inside the prior Ks' range [min,
// max] plus one grid step of exploration on each side — the
// neighbourhood past experience says the best K lives in, measured in
// grid positions (so a prior K=20 on the Table I grid keeps {15, 20},
// not {20} alone). When no grid value falls inside [min, max] at all,
// the prior experience does not map onto this grid and nil (no
// narrowing) is returned.
func narrowGrid(grid, priorKs []int) []int {
	if len(priorKs) == 0 {
		return nil
	}
	sorted := append([]int(nil), grid...)
	sort.Ints(sorted)
	lo, hi := priorKs[0], priorKs[len(priorKs)-1]
	first, last := -1, -1 // grid positions bounding [lo, hi]
	for i, k := range sorted {
		if k >= lo && k <= hi {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 {
		return nil
	}
	if first > 0 {
		first-- // one grid step of exploration below
	}
	if last < len(sorted)-1 {
		last++ // and above
	}
	return sorted[first : last+1]
}

// remapCentroids projects centroid rows from a source feature space
// onto dst by feature name: matching exam codes carry their weight
// over, codes absent from dst are dropped, dst codes the source never
// saw stay zero. Returns nil when fewer than half of the source's
// features exist in dst — too little overlap for the seed to target
// anything.
func remapCentroids(centroids [][]float64, srcFeatures, dstFeatures []string) [][]float64 {
	dstIdx := make(map[string]int, len(dstFeatures))
	for i, f := range dstFeatures {
		dstIdx[f] = i
	}
	overlap := 0
	colMap := make([]int, len(srcFeatures)) // src col → dst col (−1 = dropped)
	for i, f := range srcFeatures {
		if j, ok := dstIdx[f]; ok {
			colMap[i] = j
			overlap++
		} else {
			colMap[i] = -1
		}
	}
	if overlap*2 < len(srcFeatures) {
		return nil
	}
	out := make([][]float64, len(centroids))
	for c, row := range centroids {
		mapped := make([]float64, len(dstFeatures))
		for i, v := range row {
			if i < len(colMap) && colMap[i] >= 0 {
				mapped[colMap[i]] = v
			}
		}
		out[c] = mapped
	}
	return out
}
