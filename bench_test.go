// Benchmarks regenerating every quantitative artifact of the paper
// (see DESIGN.md §4):
//
//	E1 BenchmarkTableI       — Table I, the K-optimization sweep
//	E2 BenchmarkPartialMining — §IV-B partial-mining series
//	A2 BenchmarkFPMAblation    — Apriori vs FP-Growth over support (internal/fpm)
//	A3 BenchmarkDocstore       — K-DB substrate throughput
//	A4 BenchmarkVSMWeighting   — transformation choice vs similarity
//
// E1/E2 run at the paper's full scale (6,380 patients); one iteration
// is one complete experiment.
package adahealth_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"adahealth/internal/cluster"
	"adahealth/internal/docstore"
	"adahealth/internal/eval"
	"adahealth/internal/experiments"
	"adahealth/internal/synth"
	"adahealth/internal/vsm"
)

var (
	benchOnce   sync.Once
	benchMatrix *vsm.Matrix
	benchErr    error
)

// benchSetup builds the paper-scale dataset once for all benchmarks.
func benchSetup(b *testing.B) *vsm.Matrix {
	b.Helper()
	benchOnce.Do(func() {
		log, err := synth.Generate(synth.DefaultConfig())
		if err != nil {
			benchErr = err
			return
		}
		benchMatrix, benchErr = vsm.Build(log, vsm.Options{
			Weighting: vsm.Count, Normalization: vsm.L2,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchMatrix
}

// BenchmarkTableI regenerates Table I: the full K ∈ {6..20} sweep with
// SSE and 10-fold cross-validated decision-tree metrics on the
// 85%-of-rows subset (experiment E1).
func BenchmarkTableI(b *testing.B) {
	m := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTableIOnMatrix(context.Background(), m, experiments.TableIConfig{
			Scale: experiments.FullScale, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Sweep.BestK), "bestK")
			for _, r := range res.Sweep.Rows {
				if r.K == res.Sweep.BestK {
					b.ReportMetric(r.Accuracy*100, "accuracy%")
				}
			}
		}
	}
}

// BenchmarkPartialMining regenerates the §IV-B series: overall
// similarity of 20%/40%/100% exam-type subsets (experiment E2).
func BenchmarkPartialMining(b *testing.B) {
	m := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runPartialOnMatrix(m)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			sel := res.SelectedStep()
			b.ReportMetric(sel.Fraction*100, "selected%types")
			b.ReportMetric(sel.RowCoverage*100, "selected%rows")
		}
	}
}

func runPartialOnMatrix(m *vsm.Matrix) (*partialResult, error) {
	_, res, err := experiments.RunPartialOnMatrix(context.Background(), m, experiments.PartialConfig{
		Scale: experiments.FullScale, Seed: 1,
	})
	return res, err
}

type partialResult = experiments.PartialResult

// BenchmarkDocstore measures the K-DB substrate at paper-scale
// knowledge volume: inserts, indexed lookups and scans (A3).
func BenchmarkDocstore(b *testing.B) {
	b.Run("Insert", func(b *testing.B) {
		s, err := docstore.Open("")
		if err != nil {
			b.Fatal(err)
		}
		c := s.Collection("knowledge")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := c.Insert(docstore.Document{
				"dataset": "diab", "kind": "pattern", "support": i,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("FindEqIndexed", func(b *testing.B) {
		s, _ := docstore.Open("")
		c := s.Collection("knowledge")
		for i := 0; i < 10000; i++ {
			c.Insert(docstore.Document{"dataset": fmt.Sprintf("d%d", i%20), "n": i})
		}
		c.CreateIndex("dataset")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := c.FindEq("dataset", "d7"); len(got) != 500 {
				b.Fatalf("got %d", len(got))
			}
		}
	})
	b.Run("FindScan", func(b *testing.B) {
		s, _ := docstore.Open("")
		c := s.Collection("knowledge")
		for i := 0; i < 10000; i++ {
			c.Insert(docstore.Document{"dataset": fmt.Sprintf("d%d", i%20), "n": i})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := c.FindEq("dataset", "d7"); len(got) != 500 {
				b.Fatalf("got %d", len(got))
			}
		}
	})
	// WALInsert measures the durable write path: inserts group-
	// committed to the write-ahead log (fsync disabled so the
	// benchmark tracks the engine, not the device). One op is a batch
	// of 256 documents, amortizing the committer wake-up latency a
	// single insert would expose as scheduling noise.
	b.Run("WALInsert", func(b *testing.B) {
		s, err := docstore.OpenOptions(docstore.Options{Dir: b.TempDir(), NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		c := s.Collection("knowledge")
		b.ReportAllocs()
		b.ResetTimer()
		n := 0
		for i := 0; i < b.N; i++ {
			for j := 0; j < 256; j++ {
				if _, err := c.Insert(docstore.Document{
					"dataset": fmt.Sprintf("d%d", n%20), "kind": "pattern", "support": n,
				}); err != nil {
					b.Fatal(err)
				}
				n++
			}
		}
	})
	// WALInsertParallel exercises the group commit: concurrent writers
	// over different datasets share fsync batches.
	b.Run("WALInsertParallel", func(b *testing.B) {
		s, err := docstore.OpenOptions(docstore.Options{Dir: b.TempDir(), NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		c := s.Collection("knowledge")
		b.ReportAllocs()
		b.ResetTimer()
		var wid atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			ds := fmt.Sprintf("d%d", wid.Add(1))
			i := 0
			for pb.Next() {
				if _, err := c.Insert(docstore.Document{"dataset": ds, "n": i}); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	})
}

// BenchmarkVSMWeighting measures how the data-transformation choice
// (the component ADA-HEALTH is meant to automate) affects clustering
// quality: overall similarity of K=8 clusters per weighting (A4).
func BenchmarkVSMWeighting(b *testing.B) {
	log, err := synth.Generate(synth.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []vsm.Weighting{vsm.Count, vsm.Binary, vsm.LogCount, vsm.TFIDF} {
		b.Run(w.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := vsm.Build(log, vsm.Options{Weighting: w, Normalization: vsm.L2})
				if err != nil {
					b.Fatal(err)
				}
				res, err := cluster.KMeans(m.Rows, cluster.Options{K: 8, Seed: 1, MaxIter: 30})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					os, err := eval.OverallSimilarity(m.Rows, res.Labels, res.K)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(os, "overallSim")
				}
			}
		})
	}
}
