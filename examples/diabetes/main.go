// Diabetes cohort analysis: the paper's own scenario (Section IV-B) —
// find groups of patients with similar examination histories in a
// diabetic examination log, using the individual building blocks of
// the library rather than the one-call engine, so each pipeline stage
// is visible: VSM transformation, horizontal partial mining, the
// K-optimization of Table I, and cluster profiling.
package main

import (
	"context"
	"fmt"
	"log"

	"adahealth/internal/cluster"
	"adahealth/internal/knowledge"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/stats"
	"adahealth/internal/synth"
	"adahealth/internal/vsm"
)

func main() {
	// The synthetic stand-in for the paper's anonymized diabetic log:
	// 6,380 patients, 95,788 records, 159 exam types (see DESIGN.md).
	cfg := synth.DefaultConfig()
	data, err := synth.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	desc := stats.Characterize(data)
	fmt.Printf("cohort: %d diabetic patients, %d records over %d days\n",
		desc.NumPatients, desc.NumRecords, desc.SpanDays)
	fmt.Printf("ages %0.f-%0.f (mean %.1f), VSM sparsity %.3f\n\n",
		desc.Age.Min, desc.Age.Max, desc.Age.Mean, desc.VSMSparsity)

	// 1. Vector Space Model: one count vector per patient, unit norm.
	matrix, err := vsm.Build(data, vsm.Options{
		Weighting:     vsm.Count,
		Normalization: vsm.L2,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Horizontal partial mining: probe 20%/40%/100% of exam types
	// (most frequent first) and keep the smallest subset within 5% of
	// the full-data overall similarity.
	part, working, err := partial.SelectHorizontal(context.Background(), matrix, partial.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	for i, s := range part.Steps {
		marker := "  "
		if i == part.Selected {
			marker = "->"
		}
		fmt.Printf("%s %3.0f%% of exam types = %5.1f%% of raw rows (similarity diff %.2f%%)\n",
			marker, s.Fraction*100, s.RowCoverage*100, s.RelDiff*100)
	}
	fmt.Printf("working subset: %d features\n\n", working.NumFeatures())

	// 3. Optimize K: SSE plus decision-tree robustness, 10-fold CV
	// (the procedure behind Table I).
	sweep, err := optimize.Sweep(context.Background(), working.Rows, optimize.SweepConfig{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-4s %10s %8s %8s %8s\n", "K", "SSE", "Acc", "Prec", "Rec")
	for _, r := range sweep.Rows {
		fmt.Printf("%-4d %10.2f %7.2f%% %7.2f%% %7.2f%%\n",
			r.K, r.SSE, r.Accuracy*100, r.Precision*100, r.Recall*100)
	}
	fmt.Printf("selected K = %d\n\n", sweep.BestK)

	// 4. Final clustering and per-group profiles.
	res, err := cluster.KMeans(working.Rows, cluster.Options{
		K: sweep.BestK, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	items := knowledge.FromClusterResult(data.Name, res, working.Features, 4)
	fmt.Println("patient groups:")
	for _, it := range items {
		if it.Kind != knowledge.KindCluster {
			continue
		}
		fmt.Printf("  %s\n    %s\n", it.Title, it.Description)
	}
}
