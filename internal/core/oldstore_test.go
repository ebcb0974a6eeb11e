package core

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"adahealth/internal/dataset"
	"adahealth/internal/docstore"
	"adahealth/internal/endgoal"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
)

// writeOlderBuildDocs inserts what an older build wrote for one
// analysis beside the knowledge this one still stores: one stage_traces
// document per stage, the transformed summary, the raw log in
// raw_datasets, and recall's hit/miss row in feedback.
func writeOlderBuildDocs(t *testing.T, k *kdb.KDB, log *dataset.Log, rep *Report) {
	t.Helper()
	insert := func(coll string, v any, extra map[string]any) {
		t.Helper()
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var doc docstore.Document
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		for f, x := range extra {
			doc[f] = x
		}
		if _, err := k.Store().Collection(coll).Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range rep.Stages {
		insert("stage_traces", tr, nil)
	}
	insert("transformed", rep.Transformed, nil)
	insert("raw_datasets", log, map[string]any{"name": log.Name})
	interest := knowledge.InterestLow
	if rep.Recall.Hit {
		interest = knowledge.InterestHigh
	}
	insert(kdb.CollFeedback, kdb.Feedback{
		User: "recall-stage", Dataset: log.Name, ItemID: rep.Recall.SeedDataset,
		ItemKind: "recall", Goal: "recall-warm-start", Interest: interest,
	}, nil)
}

// TestOlderBuildDocumentsChangeNothing: a durable K-DB that also holds
// what older builds wrote and this one does not — stage traces,
// transformed summaries, raw datasets, recall's hit/miss feedback rows
// — reopens under this build, and every read of the store answers as
// it does for the same store without those documents: the next
// analysis' Report (recall outcome and end-goal recommendations
// included), TopKnowledge and GoalFeedback.
func TestOlderBuildDocumentsChangeNothing(t *testing.T) {
	catalog := map[string]bool{}
	for _, g := range endgoal.Catalog() {
		catalog[string(g.ID)] = true
	}
	isGoal := func(goal string) bool { return catalog[goal] }

	build := func(olderDocs bool) string {
		dir := t.TempDir()
		cfg := recallConfig()
		cfg.KDBDir = dir
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"ward-a", "ward-b"} {
			log := seededLog(t, 1)
			log.Name = name
			rep, err := e.Analyze(log)
			if err != nil {
				t.Fatal(err)
			}
			if olderDocs {
				writeOlderBuildDocs(t, e.KDB(), log, rep)
			}
		}
		for i := 0; i < 4; i++ {
			for _, fb := range []kdb.Feedback{
				{Goal: "adverse-event-monitoring", Interest: knowledge.InterestHigh},
				{Goal: "patient-group-discovery", Interest: knowledge.InterestLow},
			} {
				fb.User, fb.Dataset, fb.ItemID = "dr", "ward-a", "x"
				if err := e.KDB().RecordFeedback(fb); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := e.KDB().Close(); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	type reads struct {
		report   Report
		recs     []recProjection
		top      []knowledge.Item
		feedback []kdb.Feedback
	}
	read := func(dir string) (reads, *kdb.KDB) {
		cfg := recallConfig()
		cfg.KDBDir = dir
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.KDB().Close() })
		log := seededLog(t, 2)
		log.Name = "ward-new"
		rep, err := e.Analyze(log)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Recall == nil || !rep.Recall.Hit {
			t.Fatalf("recall = %+v, want a hit on the stored wards", rep.Recall)
		}
		if len(rep.Recommendations) == 0 || rep.Recommendations[0].Source != "model" {
			t.Fatalf("recommendations %+v, want the trained interest model's", rep.Recommendations)
		}
		top, err := e.KDB().TopKnowledge("", "support", 20)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := e.KDB().GoalFeedback(isGoal)
		if err != nil {
			t.Fatal(err)
		}
		return reads{comparable(rep), projectRecs(rep), top, fb}, e.KDB()
	}

	want, _ := read(build(false))
	got, k := read(build(true))
	for _, coll := range []string{"stage_traces", "transformed", "raw_datasets"} {
		if k.Store().Collection(coll).Count() == 0 {
			t.Errorf("reopened store lost its older %s documents", coll)
		}
	}
	if !reflect.DeepEqual(got.report.Recall, want.report.Recall) {
		t.Errorf("Report.Recall = %+v, want %+v", got.report.Recall, want.report.Recall)
	}
	if !reflect.DeepEqual(got.recs, want.recs) {
		t.Errorf("recommendations = %+v, want %+v", got.recs, want.recs)
	}
	if !reflect.DeepEqual(got.report, want.report) {
		t.Error("the next analysis' Report differs from the store without older documents")
	}
	if !reflect.DeepEqual(got.top, want.top) || len(want.top) == 0 {
		t.Errorf("TopKnowledge = %d items, want the %d of the store without older documents", len(got.top), len(want.top))
	}
	if !reflect.DeepEqual(got.feedback, want.feedback) || len(want.feedback) != 8 {
		t.Errorf("GoalFeedback = %+v, want %+v", got.feedback, want.feedback)
	}

	var names []string
	for name := range k.Counts() {
		names = append(names, name)
	}
	slices.Sort(names)
	wantNames := []string{kdb.CollDescriptors, kdb.CollFeedback, kdb.CollClusterKI,
		kdb.CollPatternKI, kdb.CollLiveAppends, kdb.CollLiveDatasets}
	slices.Sort(wantNames)
	if !slices.Equal(names, wantNames) {
		t.Errorf("Counts names %v, want %v", names, wantNames)
	}
}
