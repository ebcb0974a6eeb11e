// Package experiments reproduces every quantitative artifact of the
// paper's evaluation (Section IV-B): Table I ("Optimization metrics")
// and the in-text partial-mining series. The same entry points back
// the cmd/experiments binary and the root benchmark harness, so the
// printed tables and the benchmarks cannot drift apart.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/synth"
	"adahealth/internal/vsm"
)

// Scale selects the dataset size for an experiment run.
type Scale int

const (
	// FullScale reproduces the paper's dataset: 6,380 patients,
	// 95,788 records, 159 exam types.
	FullScale Scale = iota
	// SmallScale is a fast structurally-identical dataset for smoke
	// runs and CI.
	SmallScale
)

// DataConfig returns the synthetic generator configuration for a
// scale and seed.
func DataConfig(s Scale, seed int64) synth.Config {
	var cfg synth.Config
	if s == FullScale {
		cfg = synth.DefaultConfig()
	} else {
		cfg = synth.SmallConfig()
	}
	cfg.Seed = seed
	return cfg
}

// vsmOptions is the paper-faithful transformation: raw exam counts per
// patient, L2-normalized (the overall-similarity index is cosine-based
// and the published SSE magnitudes — ≈0.3-0.5 per patient — match
// unit-norm vectors).
func vsmOptions() vsm.Options {
	return vsm.Options{Weighting: vsm.Count, Normalization: vsm.L2}
}

// BuildMatrix generates the dataset and applies the VSM transform.
func BuildMatrix(s Scale, seed int64) (*vsm.Matrix, error) {
	log, err := synth.Generate(DataConfig(s, seed))
	if err != nil {
		return nil, err
	}
	return vsm.Build(log, vsmOptions())
}

// ---------------------------------------------------------------------------
// E2: the partial-mining series (Section IV-B, in-text result)
// ---------------------------------------------------------------------------

// PartialConfig configures experiment E2.
type PartialConfig struct {
	Scale Scale
	Seed  int64
	// Ks are the cluster counts probed at every step (the paper
	// reports the conclusion holds "regardless of the number of
	// clusters").
	Ks []int
}

func (c PartialConfig) withDefaults() PartialConfig {
	if len(c.Ks) == 0 {
		c.Ks = []int{6, 8, 10}
	}
	return c
}

// PartialResult aliases the partial-mining result type for callers
// outside internal/partial.
type PartialResult = partial.Result

// RunPartial executes E2 and returns both the matrix (for reuse) and
// the partial-mining result. The context bounds the whole experiment.
func RunPartial(ctx context.Context, cfg PartialConfig) (*vsm.Matrix, *PartialResult, error) {
	m, err := BuildMatrix(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	return RunPartialOnMatrix(ctx, m, cfg)
}

// RunPartialOnMatrix is RunPartial with a prebuilt matrix (used by the
// benchmarks to exclude generation cost).
func RunPartialOnMatrix(ctx context.Context, m *vsm.Matrix, cfg PartialConfig) (*vsm.Matrix, *PartialResult, error) {
	cfg = cfg.withDefaults()
	res, err := partial.RunHorizontal(ctx, m, partial.Config{
		Fractions: []float64{0.20, 0.40, 1.00},
		Ks:        cfg.Ks,
		Tolerance: 0.05,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	return m, res, nil
}

// FormatPartial renders the E2 series in the terms the paper uses.
func FormatPartial(w io.Writer, res *partial.Result) {
	fmt.Fprintf(w, "Partial-mining series (horizontal, tolerance %.0f%%)\n", res.Tolerance*100)
	fmt.Fprintf(w, "%-12s %-10s %-10s %-24s %s\n",
		"exam types", "#features", "raw rows", "overall similarity by K", "rel.diff")
	for i, s := range res.Steps {
		ks := make([]int, 0, len(s.SimilarityByK))
		for k := range s.SimilarityByK {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		sims := ""
		for _, k := range ks {
			sims += fmt.Sprintf("K=%d:%.4f ", k, s.SimilarityByK[k])
		}
		marker := " "
		if i == res.Selected {
			marker = "*"
		}
		fmt.Fprintf(w, "%-12s %-10d %-10s %-24s %.2f%% %s\n",
			fmt.Sprintf("%.0f%%", s.Fraction*100), s.NumFeatures,
			fmt.Sprintf("%.1f%%", s.RowCoverage*100), sims, s.RelDiff*100, marker)
	}
	sel := res.SelectedStep()
	fmt.Fprintf(w, "selected: %.0f%% of exam types (%.1f%% of raw rows), within %.0f%% of full-data similarity\n",
		sel.Fraction*100, sel.RowCoverage*100, res.Tolerance*100)
}

// ---------------------------------------------------------------------------
// E1: Table I "Optimization metrics"
// ---------------------------------------------------------------------------

// TableIConfig configures experiment E1.
type TableIConfig struct {
	Scale Scale
	Seed  int64
	// Ks defaults to the paper's grid {6,7,8,9,10,12,15,20}.
	Ks []int
	// CVFolds defaults to the paper's 10.
	CVFolds int
	// SubsetCoverage is the fraction of raw rows the working subset
	// must cover; the paper uses 85% ("only a subset of the original
	// dataset was used: 85% of the original raw data").
	SubsetCoverage float64
	// Parallelism bounds concurrent K evaluations.
	Parallelism int
}

func (c TableIConfig) withDefaults() TableIConfig {
	if len(c.Ks) == 0 {
		c.Ks = []int{6, 7, 8, 9, 10, 12, 15, 20}
	}
	if c.CVFolds <= 0 {
		c.CVFolds = 10
	}
	if c.SubsetCoverage <= 0 {
		c.SubsetCoverage = 0.85
	}
	return c
}

// TableIResult is the reproduced Table I.
type TableIResult struct {
	Sweep *optimize.SweepResult
	// SubsetFeatures / SubsetCoverage describe the 85%-of-rows subset
	// the sweep ran on.
	SubsetFeatures int
	SubsetCoverage float64
}

// RunTableI executes E1: build the dataset, take the feature prefix
// covering the configured fraction of raw rows, then sweep K with SSE
// + decision-tree 10-fold CV metrics. The context bounds the sweep.
func RunTableI(ctx context.Context, cfg TableIConfig) (*TableIResult, error) {
	cfg = cfg.withDefaults()
	m, err := BuildMatrix(cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	return RunTableIOnMatrix(ctx, m, cfg)
}

// RunTableIOnMatrix is RunTableI with a prebuilt matrix (used by the
// benchmarks to exclude generation cost).
func RunTableIOnMatrix(ctx context.Context, m *vsm.Matrix, cfg TableIConfig) (*TableIResult, error) {
	cfg = cfg.withDefaults()
	nf := m.FeaturesForCoverage(cfg.SubsetCoverage)
	working := m.Project(nf)

	maxK := 0
	for _, k := range cfg.Ks {
		if k > maxK {
			maxK = k
		}
	}
	ks := cfg.Ks
	if maxK > working.NumRows() {
		// Small-scale smoke runs: keep only viable Ks.
		ks = nil
		for _, k := range cfg.Ks {
			if k <= working.NumRows() {
				ks = append(ks, k)
			}
		}
	}

	// SweepMatrix warm-starts each K from the previous one and clusters
	// with the default Lloyd kernel, which runs the sparse scan over the
	// working subset's CSR rows (the VSM matrix is sparse by
	// construction).
	sweep, err := optimize.SweepMatrix(ctx, working, optimize.SweepConfig{
		Ks:          ks,
		CVFolds:     cfg.CVFolds,
		Seed:        cfg.Seed,
		Parallelism: cfg.Parallelism,
	})
	if err != nil {
		return nil, err
	}
	return &TableIResult{
		Sweep:          sweep,
		SubsetFeatures: nf,
		SubsetCoverage: m.CoverageAt(nf),
	}, nil
}

// PaperTableI returns the values published in Table I of the paper,
// for side-by-side comparison. Accuracy/precision/recall are percent.
func PaperTableI() []optimize.KResult {
	return []optimize.KResult{
		{K: 6, SSE: 3098.32, Accuracy: 87.79, Precision: 90.82, Recall: 77.30},
		{K: 7, SSE: 2805.00, Accuracy: 87.93, Precision: 86.93, Recall: 78.52},
		{K: 8, SSE: 2550.00, Accuracy: 90.41, Precision: 92.51, Recall: 79.72},
		{K: 9, SSE: 2482.36, Accuracy: 88.75, Precision: 71.03, Recall: 57.62},
		{K: 10, SSE: 2205.00, Accuracy: 87.49, Precision: 70.53, Recall: 51.06},
		{K: 12, SSE: 2101.60, Accuracy: 85.45, Precision: 64.29, Recall: 43.80},
		{K: 15, SSE: 1917.20, Accuracy: 75.18, Precision: 75.98, Recall: 55.93},
		{K: 20, SSE: 1534.00, Accuracy: 82.11, Precision: 52.59, Recall: 33.43},
	}
}

// PaperBestK is the configuration the paper's optimizer selects.
const PaperBestK = 8

// FormatTableI renders the reproduced table next to the paper's
// published values.
func FormatTableI(w io.Writer, res *TableIResult) {
	fmt.Fprintf(w, "Table I — optimization metrics (subset: %d features, %.1f%% of raw rows)\n",
		res.SubsetFeatures, res.SubsetCoverage*100)
	fmt.Fprintf(w, "%-4s | %-28s | %-28s\n", "", "measured", "paper")
	fmt.Fprintf(w, "%-4s | %8s %6s %6s %6s | %8s %6s %6s %6s\n",
		"K", "SSE", "Acc", "Prec", "Rec", "SSE", "Acc", "Prec", "Rec")
	paper := map[int]optimize.KResult{}
	for _, r := range PaperTableI() {
		paper[r.K] = r
	}
	for _, r := range res.Sweep.Rows {
		p, ok := paper[r.K]
		if !ok {
			fmt.Fprintf(w, "%-4d | %8.2f %6.2f %6.2f %6.2f | %8s %6s %6s %6s\n",
				r.K, r.SSE, r.Accuracy*100, r.Precision*100, r.Recall*100,
				"-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(w, "%-4d | %8.2f %6.2f %6.2f %6.2f | %8.2f %6.2f %6.2f %6.2f\n",
			r.K, r.SSE, r.Accuracy*100, r.Precision*100, r.Recall*100,
			p.SSE, p.Accuracy, p.Precision, p.Recall)
	}
	fmt.Fprintf(w, "selected K = %d (paper: %d); SSE elbow at K = %d\n",
		res.Sweep.BestK, PaperBestK, res.Sweep.ElbowK)
}

// ---------------------------------------------------------------------------
// E3: Figure 1, the ADA-HEALTH architecture
// ---------------------------------------------------------------------------

// ArchitectureDiagram returns an ASCII rendering of Figure 1: the
// components and data flow implemented by internal/core.
func ArchitectureDiagram() string {
	return `
                        ADA-HEALTH (Figure 1)
  ┌────────────────────────────────────────────────────────────────┐
  │                        medical dataset                         │
  └───────────────┬────────────────────────────────────────────────┘
                  v
  ┌───────────────────────────────┐     ┌──────────────────────────┐
  │ Data characterization &       │---->│                          │
  │ transformation                │     │                          │
  │  internal/stats, internal/vsm │     │                          │
  └───────────────┬───────────────┘     │                          │
                  v                     │      Knowledge DB        │
  ┌───────────────────────────────┐     │        (K-DB)            │
  │ Data analytics optimization   │<--->│  internal/kdb on         │
  │  partial mining + K sweep     │     │  internal/docstore       │
  │  internal/partial, optimize   │     │                          │
  └───────────────┬───────────────┘     │  1 raw datasets          │
                  v                     │  2 transformed           │
  ┌───────────────────────────────┐     │  3 descriptors           │
  │ Mining engines                │---->│  4 clustering knowledge  │
  │  internal/cluster (K-means,   │     │  5 pattern knowledge     │
  │  mini-batch), internal/fpm    │     │  6 user feedback         │
  └───────────────┬───────────────┘     │                          │
                  v                     │                          │
  ┌───────────────────────────────┐     │                          │
  │ Identification of viable      │<----│                          │
  │ end-goals  internal/endgoal   │     │                          │
  └───────────────┬───────────────┘     └──────────▲───────────────┘
                  v                                │ feedback
  ┌───────────────────────────────┐                │
  │ Knowledge navigation &        │────────────────┘
  │ ranking  internal/ranking     │<---- domain expert
  └───────────────────────────────┘
`
}
