package kdb

import (
	"reflect"
	"testing"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/knowledge"
	"adahealth/internal/stats"
)

func tinyLog(t *testing.T) *dataset.Log {
	t.Helper()
	l := dataset.NewLog("tiny")
	if err := l.AddExam(dataset.ExamType{Code: "A", Name: "HbA1c", Category: "routine"}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddPatient(dataset.Patient{ID: "P1", Age: 50}); err != nil {
		t.Fatal(err)
	}
	if err := l.AddRecord(dataset.Record{
		PatientID: "P1", ExamCode: "A",
		Date: time.Date(2015, 3, 1, 0, 0, 0, 0, time.UTC),
	}); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestDatasetRoundTrip(t *testing.T) {
	k, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	id, err := k.StoreDataset(tinyLog(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := k.Dataset(id)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPatients() != 1 || got.NumRecords() != 1 || got.NumExamTypes() != 1 {
		t.Errorf("round trip shape = %d/%d/%d",
			got.NumPatients(), got.NumExamTypes(), got.NumRecords())
	}
	// Indexes must work after load.
	if _, ok := got.Patient("P1"); !ok {
		t.Error("patient index not rebuilt")
	}
	if _, err := k.Dataset("nope"); err == nil {
		t.Error("missing dataset id accepted")
	}
}

func TestDescriptors(t *testing.T) {
	k, _ := Open("")
	d := stats.Characterize(tinyLog(t))
	if _, err := k.StoreDescriptor(d); err != nil {
		t.Fatal(err)
	}
	got, err := k.Descriptors()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].DatasetName != "tiny" || got[0].NumPatients != 1 {
		t.Errorf("descriptors = %+v", got)
	}
}

// TestDescriptorsThroughCache: Descriptors answers from the decoded-
// descriptor cache SimilarDatasets shares, and must still return
// global insertion order (the interest model's per-name join is
// last-wins), the same values from a cold cache after a reopen, and an
// error — not a zero descriptor — for a document that does not decode,
// even when SimilarDatasets already cached that failure.
func TestDescriptorsThroughCache(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Names chosen to stripe apart, the repeated one first and last.
	want := []stats.Descriptor{
		descFixture("ward-a", 100, 1000, 0.5),
		descFixture("ward-b", 200, 2000, 0.6),
		descFixture("ward-c", 300, 3000, 0.7),
		descFixture("ward-a", 150, 1500, 0.55),
	}
	for _, d := range want {
		if _, err := k.StoreDescriptor(d); err != nil {
			t.Fatal(err)
		}
	}
	check := func(k *KDB, when string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // second pass is all cache hits
			got, err := k.Descriptors()
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, pass %d: descriptors =\n %+v\nwant insertion order\n %+v", when, pass, got, want)
			}
		}
	}
	check(k, "warm cache")
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	k, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	check(k, "cold cache after reopen")

	if _, err := k.Store().Collection(CollDescriptors).Insert(map[string]any{
		"dataset": "corrupt", "records_per_patient": "not-a-summary",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.SimilarDatasets(want[0], "", 0); err != nil {
		t.Fatalf("SimilarDatasets over an undecodable descriptor: %v", err)
	}
	if got, err := k.Descriptors(); err == nil {
		t.Errorf("Descriptors over an undecodable document = %d descriptors, nil error; want the decode error", len(got))
	}
}

func TestKnowledgeItemsRoutingAndRoundTrip(t *testing.T) {
	k, _ := Open("")
	items := []knowledge.Item{
		{ID: "c1", Kind: knowledge.KindCluster, Dataset: "tiny", Title: "group",
			Metrics: map[string]float64{"size": 3}, Interest: knowledge.InterestUnknown},
		{ID: "p1", Kind: knowledge.KindPattern, Dataset: "tiny", Title: "pattern",
			Metrics: map[string]float64{"support": 5}, Tags: []string{"A", "B"},
			Interest: knowledge.InterestUnknown},
		{ID: "r1", Kind: knowledge.KindRule, Dataset: "other", Title: "rule",
			Interest: knowledge.InterestUnknown},
	}
	if err := k.StoreKnowledgeItems(items); err != nil {
		t.Fatal(err)
	}
	// Routing: cluster item in collection 4, pattern+rule in 5.
	counts := k.Counts()
	if counts[CollClusterKI] != 1 || counts[CollPatternKI] != 2 {
		t.Errorf("routing counts = %v", counts)
	}
	got, err := k.KnowledgeItems("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("items for tiny = %d, want 2", len(got))
	}
	all, err := k.KnowledgeItems("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("all items = %d, want 3", len(all))
	}
	// Metrics and tags survive the round trip.
	for _, it := range got {
		if it.ID == "p1" {
			if it.Metrics["support"] != 5 {
				t.Errorf("pattern metrics = %v", it.Metrics)
			}
			if len(it.Tags) != 2 || it.Tags[0] != "A" {
				t.Errorf("pattern tags = %v", it.Tags)
			}
		}
	}
}

func TestStoreKnowledgeItemsUpsert(t *testing.T) {
	k, _ := Open("")
	it := knowledge.Item{ID: "c1", Kind: knowledge.KindCluster, Dataset: "d", Title: "v1"}
	if err := k.StoreKnowledgeItems([]knowledge.Item{it}); err != nil {
		t.Fatal(err)
	}
	it.Title = "v2"
	if err := k.StoreKnowledgeItems([]knowledge.Item{it}); err != nil {
		t.Fatal(err)
	}
	got, _ := k.KnowledgeItems("d")
	if len(got) != 1 {
		t.Fatalf("upsert duplicated: %d items", len(got))
	}
	if got[0].Title != "v2" {
		t.Errorf("title = %q, want v2", got[0].Title)
	}
}

func TestSetInterest(t *testing.T) {
	k, _ := Open("")
	it := knowledge.Item{ID: "p1", Kind: knowledge.KindPattern, Dataset: "d",
		Interest: knowledge.InterestUnknown}
	if err := k.StoreKnowledgeItems([]knowledge.Item{it}); err != nil {
		t.Fatal(err)
	}
	if err := k.SetInterest("p1", knowledge.KindPattern, knowledge.InterestHigh); err != nil {
		t.Fatal(err)
	}
	got, _ := k.KnowledgeItems("d")
	if got[0].Interest != knowledge.InterestHigh {
		t.Errorf("interest = %v", got[0].Interest)
	}
	if err := k.SetInterest("missing", knowledge.KindPattern, knowledge.InterestLow); err == nil {
		t.Error("missing item accepted")
	}
}

func TestFeedback(t *testing.T) {
	k, _ := Open("")
	if err := k.RecordFeedback(Feedback{
		User: "dr.rossi", Dataset: "tiny", ItemID: "p1",
		Interest: knowledge.InterestHigh, Goal: "common-exam-patterns",
	}); err != nil {
		t.Fatal(err)
	}
	if err := k.RecordFeedback(Feedback{User: "x", Dataset: "other",
		ItemID: "q", Interest: knowledge.InterestLow}); err != nil {
		t.Fatal(err)
	}
	if err := k.RecordFeedback(Feedback{User: "x"}); err == nil {
		t.Error("feedback without interest accepted")
	}
	got, err := k.FeedbackFor("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].User != "dr.rossi" || got[0].Goal != "common-exam-patterns" {
		t.Errorf("feedback = %+v", got)
	}
	all, _ := k.FeedbackFor("")
	if len(all) != 2 {
		t.Errorf("all feedback = %d", len(all))
	}
}

func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.StoreDescriptor(stats.Characterize(tinyLog(t))); err != nil {
		t.Fatal(err)
	}
	if err := k.RecordFeedback(Feedback{User: "u", Dataset: "tiny",
		ItemID: "i", Interest: knowledge.InterestMedium}); err != nil {
		t.Fatal(err)
	}
	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	descs, err := re.Descriptors()
	if err != nil {
		t.Fatal(err)
	}
	if len(descs) != 1 {
		t.Errorf("reloaded descriptors = %d", len(descs))
	}
	fb, err := re.FeedbackFor("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if len(fb) != 1 || fb[0].Interest != knowledge.InterestMedium {
		t.Errorf("reloaded feedback = %+v", fb)
	}
}

func TestCountsCoversAllCollections(t *testing.T) {
	k, _ := Open("")
	counts := k.Counts()
	// The paper's six collections plus the engine's stage_traces and
	// the streaming layer's two live collections.
	if len(counts) != 9 {
		t.Errorf("counts covers %d collections, want 9", len(counts))
	}
	for _, name := range []string{CollRaw, CollTransformed, CollDescriptors,
		CollClusterKI, CollPatternKI, CollFeedback, CollStageTraces,
		CollLiveDatasets, CollLiveAppends} {
		if _, ok := counts[name]; !ok {
			t.Errorf("collection %s missing from Counts", name)
		}
	}
}

func TestStageTracesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 7, 29, 10, 0, 0, 0, time.UTC)
	traces := []StageTrace{
		{Dataset: "diab", Stage: "sweep", Start: base.Add(time.Millisecond),
			End: base.Add(50 * time.Millisecond), WallNanos: 49e6, AllocBytes: 1 << 20},
		{Dataset: "diab", Stage: "characterize", Start: base,
			End: base.Add(2 * time.Millisecond), WallNanos: 2e6, Sequential: true},
		{Dataset: "other", Stage: "characterize", Start: base, End: base},
	}
	if err := k.StoreStageTraces(traces); err != nil {
		t.Fatal(err)
	}
	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	// Reload from disk: traces survive and filter by dataset, ordered
	// by start time.
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.StageTraces("diab")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("stage traces for diab = %d, want 2", len(got))
	}
	if got[0].Stage != "characterize" || got[1].Stage != "sweep" {
		t.Errorf("traces not ordered by start: %q, %q", got[0].Stage, got[1].Stage)
	}
	if !got[0].Sequential || got[1].Sequential {
		t.Errorf("sequential flags lost in round trip")
	}
	if got[1].Wall() != 49*time.Millisecond {
		t.Errorf("wall = %v, want 49ms", got[1].Wall())
	}
	if got[1].AllocBytes != 1<<20 {
		t.Errorf("alloc bytes = %d", got[1].AllocBytes)
	}
	all, err := re.StageTraces("")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("all stage traces = %d, want 3", len(all))
	}
}
