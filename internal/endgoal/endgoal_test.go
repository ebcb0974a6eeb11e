package endgoal

import (
	"fmt"
	"testing"

	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/stats"
)

// richDescriptor characterizes a dataset on which the exploratory
// goals are all feasible.
func richDescriptor() stats.Descriptor {
	d := stats.Descriptor{
		DatasetName:  "rich",
		NumPatients:  6380,
		NumRecords:   95788,
		NumExamTypes: 159,
		NumVisits:    30000,
		SpanDays:     365,
	}
	d.RecordsPerPatient.Mean = 15
	d.ExamsPerVisit.Mean = 2.9
	return d
}

func TestCatalogDeterministicOrder(t *testing.T) {
	a, b := Catalog(), Catalog()
	if len(a) != 6 {
		t.Fatalf("catalog size = %d, want 6", len(a))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatal("catalog order not deterministic")
		}
	}
}

func TestFeasibilityOnRichDataset(t *testing.T) {
	r := NewRecommender(nil)
	recs, err := r.Recommend(richDescriptor())
	if err != nil {
		t.Fatal(err)
	}
	feasible := map[ID]bool{}
	for _, rec := range recs {
		feasible[rec.Goal.ID] = rec.Feasible
	}
	for _, id := range []ID{GoalPatientGroups, GoalExamPatterns,
		GoalCompliance, GoalAdverseEvents, GoalResourcePlanning} {
		if !feasible[id] {
			t.Errorf("goal %s infeasible on rich dataset", id)
		}
	}
	// Exam logs carry no outcome labels: supervised goal gated off.
	if feasible[GoalOutcome] {
		t.Error("outcome prediction feasible without outcome labels")
	}
}

func TestFeasibilityOnTinyDataset(t *testing.T) {
	d := stats.Descriptor{DatasetName: "tiny", NumPatients: 10,
		NumRecords: 20, NumExamTypes: 3, NumVisits: 15, SpanDays: 20}
	d.RecordsPerPatient.Mean = 2
	d.ExamsPerVisit.Mean = 1.1
	r := NewRecommender(nil)
	recs, err := r.Recommend(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Feasible {
			t.Errorf("goal %s feasible on a 10-patient log: %s", rec.Goal.ID, rec.Reason)
		}
		if rec.Reason == "" {
			t.Errorf("goal %s has no reason", rec.Goal.ID)
		}
	}
}

func TestFeasibleGoalsRankAboveInfeasible(t *testing.T) {
	d := richDescriptor()
	r := NewRecommender(nil)
	recs, err := r.Recommend(d)
	if err != nil {
		t.Fatal(err)
	}
	seenInfeasible := false
	for _, rec := range recs {
		if !rec.Feasible {
			seenInfeasible = true
		} else if seenInfeasible {
			t.Fatalf("feasible goal %s ranked below an infeasible one", rec.Goal.ID)
		}
	}
}

func TestPriorsPreferExploratoryGoals(t *testing.T) {
	// With no feedback the paper's exploratory-first stance applies:
	// clustering and pattern goals come first.
	r := NewRecommender(nil)
	recs, err := r.Recommend(richDescriptor())
	if err != nil {
		t.Fatal(err)
	}
	first := recs[0].Goal.ID
	if first != GoalPatientGroups && first != GoalExamPatterns {
		t.Errorf("first recommendation = %s, want an exploratory goal", first)
	}
	if recs[0].Source != "prior" {
		t.Errorf("source = %q, want prior without feedback", recs[0].Source)
	}
}

// seedFeedback trains the K-DB with consistent judgements: this user
// base loves adverse-event monitoring and dislikes patient grouping.
func seedFeedback(t *testing.T, k *kdb.KDB, d stats.Descriptor, n int) {
	t.Helper()
	if err := k.StoreAnalysis(d, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := k.RecordFeedback(kdb.Feedback{
			User: fmt.Sprintf("u%d", i), Dataset: d.DatasetName,
			ItemID: fmt.Sprintf("i%d", i), Goal: string(GoalAdverseEvents),
			Interest: knowledge.InterestHigh,
		}); err != nil {
			t.Fatal(err)
		}
		if err := k.RecordFeedback(kdb.Feedback{
			User: fmt.Sprintf("u%d", i), Dataset: d.DatasetName,
			ItemID: fmt.Sprintf("j%d", i), Goal: string(GoalPatientGroups),
			Interest: knowledge.InterestLow,
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLearnedModelOverridesPriors(t *testing.T) {
	k, err := kdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	d := richDescriptor()
	seedFeedback(t, k, d, 5) // 10 labelled entries >= MinFeedback

	r := NewRecommender(k)
	recs, err := r.Recommend(d)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[ID]Recommendation{}
	for _, rec := range recs {
		byID[rec.Goal.ID] = rec
	}
	if byID[GoalAdverseEvents].Source != "model" {
		t.Fatalf("model not trained: source = %q", byID[GoalAdverseEvents].Source)
	}
	if byID[GoalAdverseEvents].Interest != knowledge.InterestHigh {
		t.Errorf("adverse events interest = %v, want high (learned)",
			byID[GoalAdverseEvents].Interest)
	}
	if byID[GoalPatientGroups].Interest != knowledge.InterestLow {
		t.Errorf("patient groups interest = %v, want low (learned)",
			byID[GoalPatientGroups].Interest)
	}
	// Ordering follows the learned interest.
	if recs[0].Goal.ID != GoalAdverseEvents {
		t.Errorf("first goal = %s, want adverse events after feedback", recs[0].Goal.ID)
	}
}

func TestTooLittleFeedbackKeepsPriors(t *testing.T) {
	k, _ := kdb.Open("")
	d := richDescriptor()
	seedFeedback(t, k, d, 1) // 2 entries < MinFeedback (6)
	r := NewRecommender(k)
	recs, err := r.Recommend(d)
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Source != "prior" {
		t.Errorf("source = %q, want prior with sparse feedback", recs[0].Source)
	}
}

func TestFeedbackWithoutDescriptorIgnored(t *testing.T) {
	k, _ := kdb.Open("")
	// Feedback references a dataset whose descriptor was never stored.
	for i := 0; i < 10; i++ {
		k.RecordFeedback(kdb.Feedback{User: "u", Dataset: "ghost",
			ItemID: fmt.Sprintf("i%d", i), Goal: string(GoalExamPatterns),
			Interest: knowledge.InterestHigh})
	}
	r := NewRecommender(k)
	recs, err := r.Recommend(richDescriptor())
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Source == "model" {
		t.Error("model trained from unjoinable feedback")
	}
}

// TestGoalFeedbackTrainsLikeFullScan: with catalog-goal feedback rows
// interleaved with the recall stage's hit/miss rows (and rows with no
// or an unknown goal), Recommend — which reads only the catalog-goal
// rows — gives exactly the recommendations of the model trained on
// every feedback row, FeedbackFor("").
func TestGoalFeedbackTrainsLikeFullScan(t *testing.T) {
	k, err := kdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"rich", "mid", "thin"}
	for i, name := range names {
		d := richDescriptor()
		d.DatasetName = name
		d.NumPatients /= i + 1
		d.NumVisits /= 2*i + 1
		if err := k.StoreAnalysis(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	goals := []string{string(GoalAdverseEvents), "recall-warm-start", string(GoalPatientGroups),
		"", string(GoalCompliance), "recall-warm-start", "not-a-goal", string(GoalResourcePlanning)}
	interests := []knowledge.Interest{knowledge.InterestHigh, knowledge.InterestLow, knowledge.InterestMedium}
	for i := 0; i < 40; i++ {
		if err := k.RecordFeedback(kdb.Feedback{
			User: "u", Dataset: names[i%len(names)], ItemID: fmt.Sprintf("i%d", i),
			Goal: goals[i%len(goals)], Interest: interests[(i/3)%len(interests)],
		}); err != nil {
			t.Fatal(err)
		}
	}

	r := NewRecommender(k)
	all, err := k.FeedbackFor("")
	if err != nil {
		t.Fatal(err)
	}
	goalIndex := r.goalIndex()
	model, trained, err := r.fitInterestModel(all, goalIndex)
	if err != nil || !trained {
		t.Fatalf("reference model: trained %v, err %v", trained, err)
	}
	for _, name := range names {
		d := richDescriptor()
		d.DatasetName = name
		got, err := r.Recommend(d)
		if err != nil {
			t.Fatal(err)
		}
		want := r.recommend(d, goalIndex, model, trained)
		if len(got) != len(want) {
			t.Fatalf("%s: %d recommendations, want %d", name, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.Goal.ID != w.Goal.ID || g.Feasible != w.Feasible || g.Reason != w.Reason ||
				g.Interest != w.Interest || g.Score != w.Score || g.Source != w.Source {
				t.Errorf("%s #%d: got %+v, want %+v", name, i, g, w)
			}
		}
	}
}
