// Package partial implements ADA-HEALTH's adaptive partial-mining
// strategies. Rather than mining an entire (possibly huge) dataset,
// the controller analyzes increasing portions of it and stops as soon
// as the quality of the extracted knowledge is close enough to what
// the full data would yield.
//
// The strategy is the paper's horizontal one, the preliminary
// implementation of Section IV-B: incremental subsets of examination
// *types* picked in decreasing frequency order (reducing the feature
// space while retaining all patients). Quality is the
// overall-similarity index, and the smallest subset within a tolerance
// (5% in the paper) of the full-data value is selected. Section III's
// vertical strategy (subsets of patients) is not implemented.
//
// Every (fraction, K) probe is an independent clustering run, so the
// probes are units of a slots.Group: with a CPU budget (Config.Budget,
// the pipeline's stage pool) they fan out over its idle slots with the
// K-means kernel pinned serial; without one they run in order on the
// caller, each free to parallelize its kernel. Each probe writes only
// its own cell, so the Result is identical for every budget.
package partial

import (
	"context"
	"fmt"
	"math"
	"sort"

	"adahealth/internal/cluster"
	"adahealth/internal/eval"
	"adahealth/internal/slots"
	"adahealth/internal/vec"
	"adahealth/internal/vsm"
)

// Config controls a partial-mining run.
type Config struct {
	// Fractions are the increasing portions of exam *types* to probe
	// (the paper probes 0.20, 0.40 and 1.00); the last fraction must
	// be 1.
	Fractions []float64
	// Ks are the cluster counts the probe runs are evaluated at; the
	// paper's conclusion holds "regardless of the number of clusters".
	Ks []int
	// Tolerance is the maximum acceptable relative difference from
	// the full-data overall similarity; the paper uses 5%.
	Tolerance float64
	// Seed drives the clustering runs.
	Seed int64
	// Cluster carries the K-means options used by the probe runs
	// (K and Seed fields are overridden per run).
	Cluster cluster.Options
	// Budget, when non-nil, is the CPU budget shared with the rest of
	// the caller (the pipeline's stage pool): the run, which already
	// holds one of its slots, borrows idle ones for its probes and
	// keeps the K-means kernel serial. Results are identical for every
	// budget.
	Budget slots.Pool `json:"-"`
}

// withDefaults fills in the paper's parameters.
func (c Config) withDefaults() Config {
	if len(c.Fractions) == 0 {
		c.Fractions = []float64{0.20, 0.40, 1.00}
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{6, 8, 10}
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.05
	}
	return c
}

// Validate checks c as a run would use it, defaults filled in, so the
// zero value passes: fractions in (0, 1], non-decreasing, ending at 1,
// and every K at least 1.
func (c Config) Validate() error {
	c = c.withDefaults()
	last := 0.0
	for _, f := range c.Fractions {
		if f <= 0 || f > 1 {
			return fmt.Errorf("partial: fraction %g outside (0,1]", f)
		}
		if f < last {
			return fmt.Errorf("partial: fractions must be non-decreasing")
		}
		last = f
	}
	if last != 1 {
		return fmt.Errorf("partial: last fraction must be 1 (the full-data reference), got %g", last)
	}
	for _, k := range c.Ks {
		if k < 1 {
			return fmt.Errorf("partial: K must be >= 1, got %d", k)
		}
	}
	return nil
}

// Step reports one probe of the incremental analysis.
type Step struct {
	// Fraction of the exam types probed.
	Fraction float64 `json:"fraction"`
	// NumFeatures / NumRows actually used.
	NumFeatures int `json:"num_features"`
	NumRows     int `json:"num_rows"`
	// RowCoverage is the fraction of raw records covered (the paper's
	// "percentage of the original row data").
	RowCoverage float64 `json:"row_coverage"`
	// SimilarityByK maps each probed K to the overall similarity of
	// the clustering *derived from this subset*, evaluated in the
	// full representation space. Measuring all steps in the same
	// space is what makes the percentage difference against the
	// full-data value meaningful, and reproduces the paper's
	// observation that similarity decreases as exams are removed.
	SimilarityByK map[int]float64 `json:"similarity_by_k"`
	// RelDiff is the mean relative difference from the full-data
	// similarity across Ks (0 for the reference step).
	RelDiff float64 `json:"rel_diff"`
}

// Result is the outcome of an adaptive partial-mining run.
type Result struct {
	Strategy string `json:"strategy"`
	Steps    []Step `json:"steps"`
	// Selected is the index into Steps of the smallest step whose
	// RelDiff is within tolerance.
	Selected int `json:"selected"`
	// Tolerance echoes the threshold used.
	Tolerance float64 `json:"tolerance"`
}

// SelectedStep returns the chosen step.
func (r *Result) SelectedStep() Step { return r.Steps[r.Selected] }

// RunHorizontal performs the incremental exam-type analysis of
// Section IV-B on a VSM matrix whose features are ordered by
// decreasing frequency (as vsm.Build guarantees). The context is
// honoured before every (fraction, K) probe and inside every clustering
// run; a cancelled run returns ctx.Err(). Of several failing probes the
// first in (fraction, K) order is reported.
func RunHorizontal(ctx context.Context, m *vsm.Matrix, cfg Config) (*Result, error) {
	res, _, err := SelectHorizontal(ctx, m, cfg)
	return res, err
}

// SelectHorizontal is RunHorizontal that also returns the selected
// step's projection of m, the matrix that step's probes clustered (m
// itself when the step keeps every feature). A caller that goes on to
// mine the selected subset uses it in place of a second m.Project.
func SelectHorizontal(ctx context.Context, m *vsm.Matrix, cfg Config) (*Result, *vsm.Matrix, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	cfg = cfg.withDefaults()
	if cfg.Budget != nil {
		// The probes already fill the budget's cores; a kernel worker
		// count above 1 would compute outside the budget.
		cfg.Cluster.Parallelism = 1
	}
	res := &Result{Strategy: "horizontal", Tolerance: cfg.Tolerance}
	subs := make([]*vsm.Matrix, len(cfg.Fractions))
	sims := make([]float64, len(cfg.Fractions)*len(cfg.Ks))
	errs := make([]error, len(sims))

	probes := slots.NewGroup(cfg.Budget)
	// Deferred, so no probe helper outlives the run even if building a
	// projection panics; each probe writes only its own cell.
	func() {
		defer probes.Wait()
		for fi, frac := range cfg.Fractions {
			nf := int(math.Round(frac * float64(m.NumFeatures())))
			if nf < 1 {
				nf = 1
			}
			sub := m.Project(nf)
			subs[fi] = sub
			res.Steps = append(res.Steps, Step{
				Fraction:      frac,
				NumFeatures:   sub.NumFeatures(),
				NumRows:       sub.NumRows(),
				RowCoverage:   m.CoverageAt(nf),
				SimilarityByK: map[int]float64{},
			})
			for ki, k := range cfg.Ks {
				cell := fi*len(cfg.Ks) + ki
				probes.Go(func() {
					if errs[cell] = ctx.Err(); errs[cell] == nil {
						sims[cell], errs[cell] = probeSimilarity(ctx, sub.Rows, m.Rows, k, cfg)
					}
				})
			}
		}
	}()

	for fi, frac := range cfg.Fractions {
		for ki, k := range cfg.Ks {
			cell := fi*len(cfg.Ks) + ki
			if errs[cell] != nil {
				return nil, nil, probeErr(ctx, frac, k, errs[cell])
			}
			res.Steps[fi].SimilarityByK[k] = sims[cell]
		}
	}
	finishSelection(res, cfg)
	return res, subs[res.Selected], nil
}

// probeSimilarity clusters subsetRows into k groups and evaluates the
// induced labelling on evalRows (the full data): the subset has the
// same patients in a reduced feature space, so each patient keeps
// their subset-derived label.
func probeSimilarity(ctx context.Context, subsetRows, evalRows *vec.CSRMatrix, k int, cfg Config) (float64, error) {
	opts := cfg.Cluster
	opts.K = k
	opts.Seed = cfg.Seed + int64(k)*1009
	cr, err := cluster.KMeansCSRContext(ctx, subsetRows, opts)
	if err != nil {
		return 0, err
	}
	return eval.OverallSimilarity(evalRows, cr.Labels, cr.K)
}

// probeErr keeps cancellation errors unwrapped (so errors.Is matches
// context.Canceled / DeadlineExceeded) while annotating real failures
// with the probe coordinates.
func probeErr(ctx context.Context, frac float64, k int, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("partial: probing fraction %g at K=%d: %w", frac, k, err)
}

// finishSelection computes per-step relative differences against the
// final (full-data) step and picks the smallest step within tolerance.
func finishSelection(res *Result, cfg Config) {
	ref := res.Steps[len(res.Steps)-1].SimilarityByK
	// Sum in ascending K, not map order: float addition is not
	// associative, and RelDiff must not vary from run to run.
	ks := make([]int, 0, len(ref))
	for k := range ref {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for i := range res.Steps {
		step := &res.Steps[i]
		sum, n := 0.0, 0
		for _, k := range ks {
			os, ok := step.SimilarityByK[k]
			full := ref[k]
			if !ok || full == 0 {
				continue
			}
			sum += math.Abs(os-full) / full
			n++
		}
		if n > 0 {
			step.RelDiff = sum / float64(n)
		}
	}
	res.Selected = len(res.Steps) - 1
	for i := range res.Steps {
		if res.Steps[i].RelDiff <= cfg.Tolerance {
			res.Selected = i
			break
		}
	}
}
