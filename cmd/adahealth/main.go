// Command adahealth runs the automated ADA-HEALTH analysis pipeline
// on an examination log and prints the resulting report: dataset
// characterization, the partial-mining decision, the optimization
// table, the selected clustering, end-goal recommendations and the
// top-ranked knowledge items.
//
//	adahealth -synthetic                  # analyze a synthetic paper-scale log
//	adahealth -data dir/                  # analyze CSVs written by datagen
//	adahealth -kdb-dir kdbdir/ -top 15    # persist the K-DB (durable WAL), show 15 items
//	adahealth -synthetic -timeout 90s     # bound the analysis wall-clock
//	adahealth -synthetic -jobs 1          # one CPU slot: run everything one at a time
//	adahealth -synthetic -trace out.json  # dump the stage schedule as JSON
//	adahealth -synthetic -trace-html out.html  # render the schedule as an HTML Gantt view
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"adahealth/internal/cluster"
	"adahealth/internal/core"
	"adahealth/internal/dataset"
	"adahealth/internal/service"
	"adahealth/internal/synth"
)

func main() {
	var (
		dataDir   = flag.String("data", "", "directory with exams/patients/records CSVs")
		synthetic = flag.Bool("synthetic", false, "analyze a synthetic paper-scale dataset")
		small     = flag.Bool("small", false, "with -synthetic: use the small test-scale dataset")
		kdbDir    = flag.String("kdb-dir", "", "knowledge-base persistence directory (WAL + snapshots, crash-recoverable; default: in-memory)")
		seed      = flag.Int64("seed", 1, "seed for data generation and algorithms")
		top       = flag.Int("top", 10, "number of ranked knowledge items to print")
		timeout   = flag.Duration("timeout", 0, "abort the analysis after this duration (0 = no limit)")
		jobs      = flag.Int("jobs", 0, "CPU slots the analysis's stages and their fan-out share (0 = all cores, 1 = one at a time)")
		trace     = flag.String("trace", "", "write the stage schedule (Report.Stages) to this file as JSON")
		traceHTML = flag.String("trace-html", "", "render the stage schedule to this file as a self-contained HTML Gantt view (same data as -trace)")
		algorithm = flag.String("algorithm", "", "K-means kernel for the sweep and partial mining: lloyd (the default; picks the dense or sparse scan), dense-lloyd, sparse-lloyd or minibatch; auto means lloyd")
		stageTO   = flag.Duration("stage-timeout", 0, "per-stage deadline; a stage exceeding it fails the analysis with a typed error (0 = none)")
	)
	flag.Parse()

	alg, algErr := cluster.ParseAlgorithm(*algorithm)
	if algErr != nil {
		fmt.Fprintf(os.Stderr, "adahealth: %v\n", algErr)
		os.Exit(2)
	}

	var (
		log *dataset.Log
		err error
	)
	switch {
	case *dataDir != "":
		log, err = dataset.LoadCSVFiles("csv-dataset", *dataDir)
	case *synthetic:
		cfg := synth.DefaultConfig()
		if *small {
			cfg = synth.SmallConfig()
		}
		cfg.Seed = *seed
		log, err = synth.Generate(cfg)
	default:
		fmt.Fprintln(os.Stderr, "adahealth: pass -data DIR or -synthetic")
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "adahealth: loading data: %v\n", err)
		os.Exit(1)
	}

	cfg := core.Config{
		KDBDir:       *kdbDir,
		Seed:         *seed,
		Parallelism:  *jobs,
		StageTimeout: *stageTO,
	}
	cfg.Sweep.Cluster.Algorithm = alg
	cfg.Partial.Cluster.Algorithm = alg
	engine, err := core.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adahealth: %v\n", err)
		os.Exit(1)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	rep, err := engine.AnalyzeContext(ctx, log)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adahealth: analysis: %v\n", err)
		os.Exit(1)
	}
	printReport(rep, *top)
	printStageTimings(rep)
	if *trace != "" {
		if err := writeTraceFile(*trace, rep); err != nil {
			fmt.Fprintf(os.Stderr, "adahealth: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("stage trace written to %s\n", *trace)
	}
	if *traceHTML != "" {
		if err := writeTraceHTMLFile(*traceHTML, rep); err != nil {
			fmt.Fprintf(os.Stderr, "adahealth: writing trace html: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("stage trace view written to %s\n", *traceHTML)
	}
}

// writeTraceFile dumps the stage schedule in the same JSON encoding
// the daemon's status endpoint serves (service.TraceDump), so offline
// flame-style tooling consumes one format for both.
func writeTraceFile(path string, rep *core.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := service.WriteTrace(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTraceHTMLFile renders the same TraceDump the daemon's
// /v1/analyses/{id}/trace.html endpoint serves, for offline viewing.
func writeTraceHTMLFile(path string, rep *core.Report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := service.WriteTraceHTML(f, service.NewTraceDump(rep)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printStageTimings renders the stage-graph execution trace: per-stage
// wall time and allocation estimate, plus the observed concurrency.
func printStageTimings(rep *core.Report) {
	if len(rep.Stages) == 0 {
		return
	}
	fmt.Println("\n=== Stage timings ===")
	origin := rep.Stages[0].Start
	total := time.Duration(0)
	for _, tr := range rep.Stages {
		fmt.Printf("%-16s +%-9s %10s  %8.1f MB\n",
			tr.Stage,
			tr.Start.Sub(origin).Round(time.Microsecond),
			tr.Wall().Round(time.Microsecond),
			float64(tr.AllocBytes)/(1<<20))
		total += tr.Wall()
	}
	wall := rep.Stages[len(rep.Stages)-1].End.Sub(origin)
	for _, tr := range rep.Stages {
		if tr.End.Sub(origin) > wall {
			wall = tr.End.Sub(origin)
		}
	}
	fmt.Printf("stage sum %s, wall clock %s, max %d stages concurrent\n",
		total.Round(time.Microsecond), wall.Round(time.Microsecond), rep.StageConcurrency)
}

func printReport(rep *core.Report, top int) {
	d := rep.Descriptor
	fmt.Printf("=== Dataset characterization: %s ===\n", d.DatasetName)
	fmt.Printf("patients %d · records %d · exam types %d · visits %d · span %d days\n",
		d.NumPatients, d.NumRecords, d.NumExamTypes, d.NumVisits, d.SpanDays)
	fmt.Printf("VSM sparsity %.3f · frequency Gini %.3f · top-20%% coverage %.1f%%\n\n",
		d.VSMSparsity, d.FrequencyGini, d.Top20Coverage*100)

	if rec := rep.Recall; rec != nil {
		if rec.Hit {
			fmt.Printf("=== K-DB recall ===\nwarm-started from prior knowledge: prior Ks %v", rec.PriorKs)
			if len(rec.NarrowedKs) > 0 {
				fmt.Printf(", sweep narrowed to %v", rec.NarrowedKs)
			}
			if rec.SeededCentroids > 0 {
				fmt.Printf(", %d centroids seeded from %s", rec.SeededCentroids, rec.SeedDataset)
			}
			fmt.Println()
			for _, src := range rec.Sources {
				fmt.Printf("  source %s (similarity %.3f, Ks %v)\n", src.Dataset, src.Similarity, src.Ks)
			}
			fmt.Println()
		} else {
			fmt.Println("=== K-DB recall ===\nno similar prior dataset; cold analysis")
			fmt.Println()
		}
	}

	fmt.Println("=== Adaptive partial mining ===")
	for i, s := range rep.Partial.Steps {
		marker := "   "
		if i == rep.Partial.Selected {
			marker = "-> "
		}
		fmt.Printf("%s%.0f%% of exam types (%d features, %.1f%% of rows): rel.diff %.2f%%\n",
			marker, s.Fraction*100, s.NumFeatures, s.RowCoverage*100, s.RelDiff*100)
	}
	fmt.Println()

	fmt.Println("=== Algorithm optimization (K sweep) ===")
	fmt.Printf("%-4s %10s %8s %8s %8s\n", "K", "SSE", "Acc", "Prec", "Rec")
	for _, r := range rep.Sweep.Rows {
		sel := ""
		if r.K == rep.Sweep.BestK {
			sel = "  <- selected"
		}
		fmt.Printf("%-4d %10.2f %7.2f%% %7.2f%% %7.2f%%%s\n",
			r.K, r.SSE, r.Accuracy*100, r.Precision*100, r.Recall*100, sel)
	}
	fmt.Printf("final clustering: K=%d, SSE %.2f, %d iterations\n\n",
		rep.BestClustering.K, rep.BestClustering.SSE, rep.BestClustering.Iterations)

	fmt.Println("=== End-goal recommendations ===")
	for _, rec := range rep.Recommendations {
		status := "not viable"
		if rec.Feasible {
			status = "viable"
		}
		fmt.Printf("[%-9s interest=%-6s %-6s] %s\n    %s\n",
			status, rec.Interest, rec.Source, rec.Goal.Name, rec.Reason)
	}
	fmt.Println()

	fmt.Printf("=== Top %d knowledge items ===\n", top)
	for i, it := range rep.Ranked {
		if i >= top {
			break
		}
		fmt.Printf("%2d. [%-11s] %s\n", i+1, it.Kind, it.Title)
	}
}
