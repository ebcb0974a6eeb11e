package core

import (
	"fmt"
	"reflect"
	"testing"

	"adahealth/internal/dataset"
	"adahealth/internal/docstore"
	"adahealth/internal/faultfs"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/obs"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/stats"
)

// recallConfig is a test pipeline configuration with a K grid wide
// enough for narrowing to be observable.
func recallConfig() Config {
	return Config{
		Seed:    1,
		Partial: partial.Config{Ks: []int{4}},
		Sweep: optimize.SweepConfig{
			Ks:      []int{3, 4, 5, 6, 8, 10},
			CVFolds: 4,
		},
	}
}

func sweepIterations(rep *Report) int {
	total := 0
	for _, r := range rep.Sweep.Rows {
		total += r.Iterations
	}
	return total
}

// TestRecallWarmStartsSimilarDataset is the acceptance scenario: after
// one analysis deposits knowledge in the K-DB, analyzing a
// statistically similar dataset recalls it — the sweep grid narrows
// around the prior best K, the prior centroids seed the chain, and the
// sweep does strictly less clustering work than the cold run of the
// same log.
func TestRecallWarmStartsSimilarDataset(t *testing.T) {
	logA := seededLog(t, 1)
	logA.Name = "twin-a"
	logB := seededLog(t, 2)
	logB.Name = "twin-b"

	// Cold baseline: fresh engine, empty K-DB — recall runs and
	// misses.
	cold, err := New(recallConfig())
	if err != nil {
		t.Fatal(err)
	}
	coldRep, err := cold.Analyze(logB)
	if err != nil {
		t.Fatal(err)
	}
	if coldRep.Recall == nil || coldRep.Recall.Hit {
		t.Fatalf("cold analysis recall = %+v, want recorded miss", coldRep.Recall)
	}

	// Warm path: one engine, analyze the twin first.
	warm, err := New(recallConfig())
	if err != nil {
		t.Fatal(err)
	}
	repA, err := warm.Analyze(logA)
	if err != nil {
		t.Fatal(err)
	}
	// Descriptor-only ghosts (analyses that died before clustering)
	// rank at similarity 1.0 but hold no knowledge; they must not
	// occupy the MaxSources slots twin-a needs.
	ghost := warm.KDB()
	for _, name := range []string{"ghost-1", "ghost-2", "ghost-3"} {
		d := repA.Descriptor
		d.DatasetName = name
		if err := ghost.StoreAnalysis(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	warmRep, err := warm.Analyze(logB)
	if err != nil {
		t.Fatal(err)
	}

	rec := warmRep.Recall
	if rec == nil || !rec.Hit {
		t.Fatalf("recall = %+v, want hit", rec)
	}
	if len(rec.Sources) == 0 || rec.Sources[0].Dataset != "twin-a" {
		t.Fatalf("recall sources = %+v, want twin-a", rec.Sources)
	}
	wantPrior := []int{repA.Sweep.BestK}
	if !reflect.DeepEqual(rec.PriorKs, wantPrior) {
		t.Errorf("prior Ks = %v, want %v", rec.PriorKs, wantPrior)
	}
	if len(rec.NarrowedKs) == 0 || len(rec.NarrowedKs) >= len(recallConfig().Sweep.Ks) {
		t.Errorf("narrowed grid = %v, want strict subset of %v", rec.NarrowedKs, recallConfig().Sweep.Ks)
	}
	if rec.SeededCentroids == 0 || rec.SeedDataset != "twin-a" {
		t.Errorf("centroid seeding = %d rows from %q, want >0 from twin-a", rec.SeededCentroids, rec.SeedDataset)
	}
	if len(warmRep.Sweep.Rows) != len(rec.NarrowedKs) {
		t.Errorf("sweep evaluated %d rows, want the %d narrowed Ks", len(warmRep.Sweep.Rows), len(rec.NarrowedKs))
	}
	if wi, ci := sweepIterations(warmRep), sweepIterations(coldRep); wi >= ci {
		t.Errorf("warm sweep iterations = %d, want < cold %d", wi, ci)
	}
}

// TestRecallCountsOutcomes: each recall outcome increments its own
// core_recall_total series exactly once, and no other — a miss on a
// cold dataset, a hit on the same dataset once warm, a fallback on an
// offline K-DB.
func TestRecallCountsOutcomes(t *testing.T) {
	outcomes := []string{"hit", "miss", "fallback"}
	counts := func() map[string]float64 {
		m := map[string]float64{}
		for _, o := range outcomes {
			m[o] = obs.Default().Value("core_recall_total", o)
		}
		return m
	}
	analyze := func(want string, e *Engine, log *dataset.Log) {
		t.Helper()
		before := counts()
		if _, err := e.Analyze(log); err != nil {
			t.Fatal(err)
		}
		after := counts()
		for _, o := range outcomes {
			wantDelta := 0.0
			if o == want {
				wantDelta = 1
			}
			if d := after[o] - before[o]; d != wantDelta {
				t.Errorf("%s analysis: core_recall_total{outcome=%q} moved by %v, want %v", want, o, d, wantDelta)
			}
		}
	}

	e, err := New(recallConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := seededLog(t, 1)
	analyze("miss", e, log)
	analyze("hit", e, log)

	ffs := faultfs.New(nil, 1)
	k, err := kdb.OpenStore(docstore.Options{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	offline, err := NewWithKDB(recallConfig(), k)
	if err != nil {
		t.Fatal(err)
	}
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Err: faultfs.ENOSPC()})
	// The analysis' one write comes after recall, so break the store
	// first.
	if err := k.StoreAnalysis(stats.Descriptor{DatasetName: "broken"}, nil); err == nil {
		t.Fatal("write over a failing WAL succeeded")
	}
	analyze("fallback", offline, log)
}

// TestRecallMissKeepsColdPathBitForBit: when recall finds nothing, the
// analysis must be bit-for-bit identical to one with the stage
// disabled — the self-learning loop may only ever add information.
func TestRecallMissKeepsColdPathBitForBit(t *testing.T) {
	log := seededLog(t, 3)

	on, err := New(recallConfig())
	if err != nil {
		t.Fatal(err)
	}
	repOn, err := on.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if repOn.Recall == nil || repOn.Recall.Hit {
		t.Fatalf("recall on empty K-DB = %+v, want miss", repOn.Recall)
	}

	cfg := recallConfig()
	cfg.Recall.Disabled = true
	off, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	repOff, err := off.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if repOff.Recall != nil {
		t.Fatalf("disabled recall produced an outcome: %+v", repOff.Recall)
	}

	a, b := comparable(repOn), comparable(repOff)
	a.Recall, b.Recall = nil, nil
	if !reflect.DeepEqual(a, b) {
		t.Error("recall miss perturbed the analysis (want bit-for-bit cold path)")
	}
	if !reflect.DeepEqual(projectRecs(repOn), projectRecs(repOff)) {
		t.Error("recall miss perturbed the recommendations")
	}
}

// TestRecallRepeatAnalysisSameDataset: a serial re-analysis of the
// same dataset name recalls its own earlier run.
func TestRecallRepeatAnalysisSameDataset(t *testing.T) {
	e, err := New(recallConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := seededLog(t, 1)
	if _, err := e.Analyze(log); err != nil {
		t.Fatal(err)
	}
	rep, err := e.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recall == nil || !rep.Recall.Hit {
		t.Fatalf("repeat analysis recall = %+v, want hit on own history", rep.Recall)
	}
	if len(rep.Recall.Sources) == 0 || rep.Recall.Sources[0].Dataset != log.Name {
		t.Errorf("repeat analysis sources = %+v, want %s", rep.Recall.Sources, log.Name)
	}
}

// TestRecallHelperUnits covers the grid-narrowing and centroid-remap
// edge cases.
func TestRecallHelperUnits(t *testing.T) {
	if got := narrowGrid([]int{3, 4, 5, 6, 8, 10}, []int{5}); !reflect.DeepEqual(got, []int{4, 5, 6}) {
		t.Errorf("narrowGrid single prior = %v", got)
	}
	// The window is one grid step, not ±1 absolute: a prior at the
	// coarse end keeps its grid neighbour for exploration.
	if got := narrowGrid(optimize.DefaultKs(), []int{20}); !reflect.DeepEqual(got, []int{15, 20}) {
		t.Errorf("narrowGrid at grid edge = %v, want [15 20]", got)
	}
	if got := narrowGrid(optimize.DefaultKs(), []int{8, 10}); !reflect.DeepEqual(got, []int{7, 8, 9, 10, 12}) {
		t.Errorf("narrowGrid range prior = %v, want [7 8 9 10 12]", got)
	}
	if got := narrowGrid([]int{3, 4, 5}, []int{9}); got != nil {
		t.Errorf("narrowGrid disjoint = %v, want nil", got)
	}
	if got := narrowGrid([]int{3, 4, 5}, nil); got != nil {
		t.Errorf("narrowGrid no priors = %v, want nil", got)
	}

	cents := [][]float64{{1, 2, 3}, {4, 5, 6}}
	src := []string{"a", "b", "c"}
	dst := []string{"b", "x", "a"}
	got := remapCentroids(cents, src, dst)
	want := [][]float64{{2, 0, 1}, {5, 0, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remapCentroids = %v, want %v", got, want)
	}
	// Under 50% feature overlap refuses to seed.
	if got := remapCentroids(cents, src, []string{"c", "y", "z"}); got != nil {
		t.Errorf("remapCentroids with 1/3 overlap = %v, want nil", got)
	}

	// Validation knobs.
	bad := recallConfig()
	bad.Recall.MinSimilarity = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("MinSimilarity > 1 accepted")
	}
	bad = recallConfig()
	bad.Recall.MaxSources = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative MaxSources accepted")
	}
}

// TestRecallPoisonDocuments: recall decodes only a source's cluster
// sets, so an undecodable pattern item (foreign schema, hand edit) no
// longer hides the dataset's cluster knowledge, while an undecodable
// cluster set still makes recall skip the dataset.
func TestRecallPoisonDocuments(t *testing.T) {
	e, err := New(recallConfig())
	if err != nil {
		t.Fatal(err)
	}
	logA := seededLog(t, 1)
	logA.Name = "twin-a"
	if _, err := e.Analyze(logA); err != nil {
		t.Fatal(err)
	}
	insert := func(coll string, doc docstore.Document) {
		t.Helper()
		if _, err := e.KDB().Store().Collection(coll).Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	sources := func(name string) []string {
		t.Helper()
		log := seededLog(t, 2)
		log.Name = name
		rep, err := e.Analyze(log)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, src := range rep.Recall.Sources {
			out = append(out, src.Dataset)
		}
		return out
	}

	insert(kdb.CollPatternKI, docstore.Document{
		"dataset": "twin-a", "kind": string(knowledge.KindPattern), "metrics": "not-an-object",
	})
	if got := sources("twin-b"); !reflect.DeepEqual(got, []string{"twin-a"}) {
		t.Errorf("recall sources with an undecodable pattern item = %v, want [twin-a]", got)
	}

	insert(kdb.CollClusterKI, docstore.Document{
		"dataset": "twin-a", "kind": string(knowledge.KindClusterSet), "metrics": map[string]any{"k": "six"},
	})
	if got := sources("twin-c"); !reflect.DeepEqual(got, []string{"twin-b"}) {
		t.Errorf("recall sources with an undecodable cluster set = %v, want [twin-b] (twin-a skipped)", got)
	}
}

// TestAnalysisDecodesDoNotGrowWithHistory: the K-DB reads on an
// analysis' path decode only what they use, so one analysis decodes as
// many documents after 100 prior analyses as after 10 — other
// datasets' items and the descriptors already seen are never decoded
// again.
func TestAnalysisDecodesDoNotGrowWithHistory(t *testing.T) {
	e, err := New(recallConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := seededLog(t, 1)
	decodes := func() float64 { return obs.Default().Value("kdb_documents_decoded_total") }
	counts := map[int]float64{}
	for i := 0; i <= 100; i++ {
		log.Name = fmt.Sprintf("ward-%d", i%5)
		before := decodes()
		if _, err := e.Analyze(log); err != nil {
			t.Fatal(err)
		}
		if i == 10 || i == 100 {
			counts[i] = decodes() - before
		}
	}
	if counts[10] == 0 || counts[10] != counts[100] {
		t.Errorf("documents decoded by one analysis: %v after 10 priors, %v after 100; want equal and non-zero", counts[10], counts[100])
	}
}
