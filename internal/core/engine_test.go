package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/obs"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/synth"
)

// testConfig is a fast pipeline configuration for the small synthetic
// dataset.
func testConfig() Config {
	return Config{
		Seed: 1,
		Partial: partial.Config{
			Ks: []int{4},
		},
		Sweep: optimize.SweepConfig{
			Ks:      []int{3, 4, 5},
			CVFolds: 4,
		},
	}
}

func smallLog(t *testing.T) *dataset.Log {
	t.Helper()
	log, err := synth.Generate(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestAnalyzeEndToEnd(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Analyze(smallLog(t))
	if err != nil {
		t.Fatal(err)
	}

	// Characterization reflects the input.
	if rep.Descriptor.NumPatients != 300 {
		t.Errorf("descriptor patients = %d", rep.Descriptor.NumPatients)
	}
	// Transformation summary is consistent.
	if rep.Transformed.NumRows != 300 || rep.Transformed.NumFeatures != 40 {
		t.Errorf("transformed = %+v", rep.Transformed)
	}
	// Partial mining ran the paper's three steps and selected one.
	if len(rep.Partial.Steps) != 3 {
		t.Errorf("partial steps = %d", len(rep.Partial.Steps))
	}
	if rep.SelectedSubset < 1 || rep.SelectedSubset > 40 {
		t.Errorf("selected subset = %d", rep.SelectedSubset)
	}
	// The sweep covered the grid and chose a K from it.
	if len(rep.Sweep.Rows) != 3 {
		t.Errorf("sweep rows = %d", len(rep.Sweep.Rows))
	}
	found := false
	for _, k := range []int{3, 4, 5} {
		if rep.Sweep.BestK == k {
			found = true
		}
	}
	if !found {
		t.Errorf("BestK = %d not in grid", rep.Sweep.BestK)
	}
	// Final clustering matches BestK.
	if rep.BestClustering.K != rep.Sweep.BestK {
		t.Errorf("final clustering K = %d, sweep best = %d",
			rep.BestClustering.K, rep.Sweep.BestK)
	}
	// Knowledge items: cluster set + one per cluster.
	if len(rep.ClusterItems) != rep.Sweep.BestK+1 {
		t.Errorf("cluster items = %d, want %d", len(rep.ClusterItems), rep.Sweep.BestK+1)
	}
	// Pattern items bounded by the manageable-set cap.
	if len(rep.PatternItems) > 50 {
		t.Errorf("pattern items = %d exceed cap", len(rep.PatternItems))
	}
	if len(rep.PatternItems) == 0 {
		t.Error("no co-prescription patterns found in bundled synthetic data")
	}
	// Recommendations cover the full catalog.
	if len(rep.Recommendations) != 6 {
		t.Errorf("recommendations = %d, want 6", len(rep.Recommendations))
	}
	// Ranked list contains everything extracted.
	want := len(rep.ClusterItems) + len(rep.PatternItems) + len(rep.RuleItems)
	if len(rep.Ranked) != want {
		t.Errorf("ranked = %d, want %d", len(rep.Ranked), want)
	}
}

func TestAnalyzePopulatesKDB(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(smallLog(t)); err != nil {
		t.Fatal(err)
	}
	counts := e.KDB().Counts()
	if counts[kdb.CollDescriptors] != 1 {
		t.Errorf("descriptors stored = %d", counts[kdb.CollDescriptors])
	}
	// Recall counts its outcome in core_recall_total, not as a row.
	if counts[kdb.CollFeedback] != 0 {
		t.Errorf("feedback stored = %d, want 0", counts[kdb.CollFeedback])
	}
	if counts[kdb.CollClusterKI] == 0 {
		t.Error("no clustering knowledge stored")
	}
	if counts[kdb.CollPatternKI] == 0 {
		t.Error("no pattern knowledge stored")
	}
}

// TestAnalysisIsOneWALCommit: a completed analysis writes the K-DB
// once. Its knowledge items and then its descriptor, last, are one
// group commit on a durable K-DB, counted as
// docstore_wal_commit_seconds observations, which the benchmark's
// docstore.fsyncs_per_op reads.
func TestAnalysisIsOneWALCommit(t *testing.T) {
	cfg := testConfig()
	cfg.KDBDir = t.TempDir()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.KDB().Close()
	store := e.KDB().Store()
	commits := func() float64 { return obs.Default().Value("docstore_wal_commit_seconds") }
	commits0, before := commits(), store.ReplStatus()
	rep, err := e.Analyze(smallLog(t))
	if err != nil {
		t.Fatal(err)
	}
	items := len(rep.ClusterItems) + len(rep.PatternItems) + len(rep.RuleItems)
	frames := store.ReplStatus().Frames - before.Frames
	if n := commits() - commits0; n != 1 || frames != int64(items+1) {
		t.Fatalf("analysis wrote %d WAL frames in %v commits, want its %d items and a descriptor in 1", frames, n, items)
	}
	r, err := store.WALReader()
	if err != nil {
		t.Fatal(err)
	}
	raw, _, err := r.Read(before.Epoch, before.Offset, 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	if d, k := bytes.Index(raw, []byte(`"c":"descriptors"`)), bytes.LastIndex(raw, []byte(`"c":"knowledge_`)); d < 0 || d < k {
		t.Fatalf("descriptor frame at byte %d, last knowledge frame at %d: want the descriptor last", d, k)
	}
}

func TestAnalyzeEmptyLog(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(dataset.NewLog("empty")); err == nil {
		t.Error("empty log accepted")
	}
}

// TestAnalyzeRefusesUncleanLog: an analysis of a log that repeats a
// patient id or names an unregistered exam type fails before any stage
// runs, with the integrity error.
func TestAnalyzeRefusesUncleanLog(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2015, 1, 2, 0, 0, 0, 0, time.UTC)
	for _, l := range []*dataset.Log{
		{Exams: []dataset.ExamType{{Code: "E"}}, Patients: []dataset.Patient{{ID: "P"}, {ID: "P"}}, Records: []dataset.Record{{PatientID: "P", ExamCode: "E", Date: at}}},
		{Exams: []dataset.ExamType{{Code: "E"}}, Patients: []dataset.Patient{{ID: "P"}}, Records: []dataset.Record{{PatientID: "P", ExamCode: "F", Date: at}}},
	} {
		if _, err := e.Analyze(l); err == nil || !strings.Contains(err.Error(), "dataset:") {
			t.Errorf("unclean log analyzed: %v", err)
		}
	}
}

func TestAnalyzePersistsKDBToDisk(t *testing.T) {
	cfg := testConfig()
	cfg.KDBDir = t.TempDir()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Analyze(smallLog(t)); err != nil {
		t.Fatal(err)
	}
	// Reopen the K-DB fresh and confirm the knowledge survived.
	re, err := kdb.Open(cfg.KDBDir)
	if err != nil {
		t.Fatal(err)
	}
	items, err := re.KnowledgeItems("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Error("no knowledge items persisted")
	}
}

func TestAnalyzeFeedbackLoop(t *testing.T) {
	// Feedback recorded after one analysis steers the end-goal
	// recommendation of the next (the paper's self-learning loop).
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	log := smallLog(t)
	rep1, err := e.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	_ = rep1
	for i := 0; i < 4; i++ {
		if err := e.KDB().RecordFeedback(kdb.Feedback{
			User: "dr", Dataset: log.Name, ItemID: "x",
			Goal: "adverse-event-monitoring", Interest: knowledge.InterestHigh,
		}); err != nil {
			t.Fatal(err)
		}
		if err := e.KDB().RecordFeedback(kdb.Feedback{
			User: "dr", Dataset: log.Name, ItemID: "y",
			Goal: "patient-group-discovery", Interest: knowledge.InterestLow,
		}); err != nil {
			t.Fatal(err)
		}
	}
	rep2, err := e.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Recommendations[0].Source != "model" {
		t.Fatalf("recommendation source = %q, want model after feedback",
			rep2.Recommendations[0].Source)
	}
	if rep2.Recommendations[0].Goal.ID != "adverse-event-monitoring" {
		t.Errorf("top goal = %s, want adverse-event-monitoring after feedback",
			rep2.Recommendations[0].Goal.ID)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	log := smallLog(t)
	e1, _ := New(testConfig())
	e2, _ := New(testConfig())
	r1, err := e1.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Sweep.BestK != r2.Sweep.BestK {
		t.Errorf("BestK differs: %d vs %d", r1.Sweep.BestK, r2.Sweep.BestK)
	}
	if r1.SelectedSubset != r2.SelectedSubset {
		t.Errorf("subset differs: %d vs %d", r1.SelectedSubset, r2.SelectedSubset)
	}
	if len(r1.Ranked) != len(r2.Ranked) {
		t.Fatalf("ranked lengths differ")
	}
	for i := range r1.Ranked {
		if r1.Ranked[i].ID != r2.Ranked[i].ID {
			t.Fatalf("ranking differs at %d: %s vs %s",
				i, r1.Ranked[i].ID, r2.Ranked[i].ID)
		}
	}
}
