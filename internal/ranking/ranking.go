// Package ranking implements ADA-HEALTH's knowledge-navigation
// component: an interactive ranking algorithm that orders extracted
// knowledge items by estimated interestingness and dynamically adapts
// to user feedback ("based on user feedbacks, the algorithm adjusts
// the way and order knowledge items are presented", Section III).
package ranking

import (
	"fmt"
	"math"
	"sort"

	"adahealth/internal/knowledge"
)

// Ranker scores knowledge items, combining per-item quality metrics
// with multiplicative weights per kind and per tag that feedback
// updates online.
type Ranker struct {
	// LearningRate controls how strongly one feedback event shifts
	// the weights; default 0.2.
	LearningRate float64

	kindWeight map[knowledge.Kind]float64
	tagWeight  map[string]float64
}

// NewRanker returns a ranker with neutral weights.
func NewRanker() *Ranker {
	return &Ranker{
		LearningRate: 0.2,
		kindWeight:   map[knowledge.Kind]float64{},
		tagWeight:    map[string]float64{},
	}
}

// baseScore maps an item's own metrics to a quality estimate in
// roughly [0, 2].
func baseScore(it knowledge.Item) float64 {
	m := it.Metrics
	switch it.Kind {
	case knowledge.KindPattern:
		// Frequent, larger patterns first.
		return 2*m["support_frac"] + 0.1*m["size"]
	case knowledge.KindRule:
		lift := math.Min(m["lift"], 3) / 3
		return 0.5*m["confidence"] + 0.5*lift
	case knowledge.KindCluster:
		// Mid-sized groups are the interesting ones: tiny groups are
		// noise, giant groups are the uninformative bulk.
		f := m["fraction"]
		return 1 - math.Abs(f-0.25)
	case knowledge.KindClusterSet:
		return 0.6
	default:
		return 0.5
	}
}

// interestBoost converts an assigned interest label into a multiplier.
func interestBoost(i knowledge.Interest) float64 {
	switch i {
	case knowledge.InterestHigh:
		return 1.5
	case knowledge.InterestMedium:
		return 1.0
	case knowledge.InterestLow:
		return 0.3
	default:
		return 1.0
	}
}

func (r *Ranker) weightOfKind(k knowledge.Kind) float64 {
	if w, ok := r.kindWeight[k]; ok {
		return w
	}
	return 1
}

func (r *Ranker) weightOfTags(tags []string) float64 {
	if len(tags) == 0 {
		return 1
	}
	sum := 0.0
	for _, t := range tags {
		if w, ok := r.tagWeight[t]; ok {
			sum += w
		} else {
			sum += 1
		}
	}
	return sum / float64(len(tags))
}

// Score returns the current interestingness estimate of an item.
func (r *Ranker) Score(it knowledge.Item) float64 {
	return baseScore(it) * interestBoost(it.Interest) *
		r.weightOfKind(it.Kind) * r.weightOfTags(it.Tags)
}

// Rank returns the items ordered by decreasing score (ties broken by
// ID for determinism). The input slice is not modified.
func (r *Ranker) Rank(items []knowledge.Item) []knowledge.Item {
	out := append([]knowledge.Item(nil), items...)
	sort.Slice(out, func(i, j int) bool {
		si, sj := r.Score(out[i]), r.Score(out[j])
		if si != sj {
			return si > sj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Feedback folds one user judgement into the weights: items that share
// the judged item's kind and tags move up (high) or down (low).
func (r *Ranker) Feedback(it knowledge.Item, interest knowledge.Interest) {
	lr := r.LearningRate
	if lr <= 0 {
		lr = 0.2
	}
	var factor float64
	switch interest {
	case knowledge.InterestHigh:
		factor = 1 + lr
	case knowledge.InterestLow:
		factor = 1 - lr
	default:
		return // medium feedback is neutral
	}
	r.kindWeight[it.Kind] = clampWeight(r.weightOfKind(it.Kind) * factor)
	for _, t := range it.Tags {
		w := 1.0
		if cur, ok := r.tagWeight[t]; ok {
			w = cur
		}
		r.tagWeight[t] = clampWeight(w * factor)
	}
}

func clampWeight(w float64) float64 {
	if w < 0.1 {
		return 0.1
	}
	if w > 10 {
		return 10
	}
	return w
}

// Session is an interactive navigation over a fixed item set: the user
// pages through ranked items, gives feedback, and subsequent pages are
// re-ranked under the updated weights.
type Session struct {
	ranker   *Ranker
	items    map[string]knowledge.Item
	seen     map[string]bool
	pageSize int
}

// NewSession starts a navigation session. pageSize <= 0 defaults to 10.
func NewSession(items []knowledge.Item, ranker *Ranker, pageSize int) *Session {
	if ranker == nil {
		ranker = NewRanker()
	}
	if pageSize <= 0 {
		pageSize = 10
	}
	s := &Session{
		ranker:   ranker,
		items:    make(map[string]knowledge.Item, len(items)),
		seen:     map[string]bool{},
		pageSize: pageSize,
	}
	for _, it := range items {
		s.items[it.ID] = it
	}
	return s
}

// Next returns the next page of unseen items under the current
// ranking, marking them seen. An empty page means the session is
// exhausted.
func (s *Session) Next() []knowledge.Item {
	var unseen []knowledge.Item
	for _, it := range s.items {
		if !s.seen[it.ID] {
			unseen = append(unseen, it)
		}
	}
	ranked := s.ranker.Rank(unseen)
	if len(ranked) > s.pageSize {
		ranked = ranked[:s.pageSize]
	}
	for _, it := range ranked {
		s.seen[it.ID] = true
	}
	return ranked
}

// Feedback records the user's judgement of a shown item and adapts the
// ranking for subsequent pages.
func (s *Session) Feedback(itemID string, interest knowledge.Interest) error {
	it, ok := s.items[itemID]
	if !ok {
		return fmt.Errorf("ranking: unknown item %q", itemID)
	}
	if !s.seen[itemID] {
		return fmt.Errorf("ranking: feedback on unseen item %q", itemID)
	}
	s.ranker.Feedback(it, interest)
	it.Interest = interest
	s.items[itemID] = it
	return nil
}
