package ranking

import (
	"testing"

	"adahealth/internal/knowledge"
)

func pattern(id string, supportFrac float64) knowledge.Item {
	return knowledge.Item{
		ID: id, Kind: knowledge.KindPattern,
		Metrics:  map[string]float64{"support_frac": supportFrac, "size": 2},
		Tags:     []string{"tag-" + id},
		Interest: knowledge.InterestUnknown,
	}
}

func rule(id string, conf, lift float64) knowledge.Item {
	return knowledge.Item{
		ID: id, Kind: knowledge.KindRule,
		Metrics:  map[string]float64{"confidence": conf, "lift": lift},
		Interest: knowledge.InterestUnknown,
	}
}

func TestRankOrdersBySupport(t *testing.T) {
	r := NewRanker()
	items := []knowledge.Item{pattern("low", 0.05), pattern("high", 0.5), pattern("mid", 0.2)}
	ranked := r.Rank(items)
	if ranked[0].ID != "high" || ranked[2].ID != "low" {
		t.Errorf("order = %v, %v, %v", ranked[0].ID, ranked[1].ID, ranked[2].ID)
	}
	// Input untouched.
	if items[0].ID != "low" {
		t.Error("Rank mutated its input")
	}
}

func TestInterestLabelAffectsScore(t *testing.T) {
	r := NewRanker()
	a := pattern("a", 0.2)
	b := pattern("b", 0.2)
	b.Interest = knowledge.InterestHigh
	if r.Score(b) <= r.Score(a) {
		t.Errorf("high-interest item does not outscore unknown: %v vs %v",
			r.Score(b), r.Score(a))
	}
	c := pattern("c", 0.2)
	c.Interest = knowledge.InterestLow
	if r.Score(c) >= r.Score(a) {
		t.Errorf("low-interest item does not score below unknown")
	}
}

func TestFeedbackShiftsKind(t *testing.T) {
	r := NewRanker()
	p := pattern("p", 0.2)
	ru := rule("r", 0.9, 2)
	before := r.Rank([]knowledge.Item{p, ru})
	// Dislike patterns repeatedly: the rule should move to the top.
	for i := 0; i < 10; i++ {
		r.Feedback(p, knowledge.InterestLow)
	}
	after := r.Rank([]knowledge.Item{p, ru})
	if before[0].ID == "p" && after[0].ID == "p" {
		t.Error("repeated negative feedback on patterns did not demote them")
	}
	if after[0].ID != "r" {
		t.Errorf("after feedback top = %s, want r", after[0].ID)
	}
}

func TestFeedbackShiftsTags(t *testing.T) {
	r := NewRanker()
	a := pattern("a", 0.2) // tag-a
	b := pattern("b", 0.2) // tag-b
	for i := 0; i < 5; i++ {
		r.Feedback(a, knowledge.InterestHigh)
	}
	if r.Score(a) <= r.Score(b) {
		t.Errorf("positively tagged item does not outscore: %v vs %v", r.Score(a), r.Score(b))
	}
}

func TestFeedbackMediumNeutral(t *testing.T) {
	r := NewRanker()
	p := pattern("p", 0.2)
	before := r.Score(p)
	r.Feedback(p, knowledge.InterestMedium)
	if after := r.Score(p); after != before {
		t.Errorf("medium feedback changed score: %v -> %v", before, after)
	}
}

func TestWeightsClamped(t *testing.T) {
	r := NewRanker()
	p := pattern("p", 0.2)
	for i := 0; i < 100; i++ {
		r.Feedback(p, knowledge.InterestHigh)
	}
	if w := r.weightOfKind(knowledge.KindPattern); w > 10 {
		t.Errorf("kind weight unbounded: %v", w)
	}
	for i := 0; i < 200; i++ {
		r.Feedback(p, knowledge.InterestLow)
	}
	if w := r.weightOfKind(knowledge.KindPattern); w < 0.1 {
		t.Errorf("kind weight under-clamped: %v", w)
	}
}

func TestClusterBaseScorePrefersMidSizedGroups(t *testing.T) {
	r := NewRanker()
	mk := func(id string, fraction float64) knowledge.Item {
		return knowledge.Item{ID: id, Kind: knowledge.KindCluster,
			Metrics: map[string]float64{"fraction": fraction}}
	}
	mid := mk("mid", 0.25)
	tiny := mk("tiny", 0.01)
	huge := mk("huge", 0.9)
	if r.Score(mid) <= r.Score(tiny) || r.Score(mid) <= r.Score(huge) {
		t.Errorf("mid-sized cluster not preferred: mid=%v tiny=%v huge=%v",
			r.Score(mid), r.Score(tiny), r.Score(huge))
	}
}

func TestRankDeterministicTieBreak(t *testing.T) {
	r := NewRanker()
	a := pattern("aaa", 0.2)
	b := pattern("bbb", 0.2)
	// Same metrics and tags weight (distinct tags but both neutral).
	ranked1 := r.Rank([]knowledge.Item{b, a})
	ranked2 := r.Rank([]knowledge.Item{a, b})
	if ranked1[0].ID != ranked2[0].ID {
		t.Error("tie-break not deterministic")
	}
	if ranked1[0].ID != "aaa" {
		t.Errorf("tie-break by ID broken: %s first", ranked1[0].ID)
	}
}

func TestSessionPagingAndExhaustion(t *testing.T) {
	var items []knowledge.Item
	for i := 0; i < 25; i++ {
		items = append(items, pattern(itemID(i), float64(i)/100))
	}
	s := NewSession(items, nil, 10)
	page1 := s.Next()
	if len(page1) != 10 {
		t.Fatalf("page1 = %d items", len(page1))
	}
	page2 := s.Next()
	page3 := s.Next()
	if len(page2) != 10 || len(page3) != 5 {
		t.Errorf("pages = %d, %d", len(page2), len(page3))
	}
	if got := s.Next(); len(got) != 0 {
		t.Errorf("exhausted session returned %d items", len(got))
	}
	// No duplicates across pages.
	seen := map[string]bool{}
	for _, p := range [][]knowledge.Item{page1, page2, page3} {
		for _, it := range p {
			if seen[it.ID] {
				t.Fatalf("item %s shown twice", it.ID)
			}
			seen[it.ID] = true
		}
	}
}

func TestSessionFeedbackAdaptsNextPage(t *testing.T) {
	// First page of patterns; rules waiting. Negative feedback on a
	// pattern must let rules jump the queue on the next page.
	var items []knowledge.Item
	for i := 0; i < 3; i++ {
		items = append(items, pattern(itemID(i), 0.9))
	}
	for i := 3; i < 6; i++ {
		items = append(items, rule(itemID(i), 0.9, 2.5))
	}
	weak := pattern("weak", 0.01)
	items = append(items, weak)

	s := NewSession(items, NewRanker(), 3)
	page1 := s.Next()
	for _, it := range page1 {
		if it.Kind != knowledge.KindPattern {
			t.Fatalf("page1 contains %v, expected patterns first", it.Kind)
		}
		if err := s.Feedback(it.ID, knowledge.InterestLow); err != nil {
			t.Fatal(err)
		}
	}
	page2 := s.Next()
	if page2[0].Kind != knowledge.KindRule {
		t.Errorf("page2 top kind = %v, want rule after negative pattern feedback",
			page2[0].Kind)
	}
}

func TestSessionFeedbackErrors(t *testing.T) {
	s := NewSession([]knowledge.Item{pattern("p", 0.5)}, nil, 5)
	if err := s.Feedback("missing", knowledge.InterestHigh); err == nil {
		t.Error("feedback on unknown item accepted")
	}
	if err := s.Feedback("p", knowledge.InterestHigh); err == nil {
		t.Error("feedback on unseen item accepted")
	}
	s.Next()
	if err := s.Feedback("p", knowledge.InterestHigh); err != nil {
		t.Errorf("feedback on seen item rejected: %v", err)
	}
}

func itemID(i int) string {
	return string(rune('a'+i/10)) + string(rune('a'+i%10))
}
