// Package endgoal implements the identification of viable end-goals,
// the component the paper calls "the core and one of the most
// innovative contributions of the ADA-HEALTH architecture". It follows
// the paper's three key ingredients:
//
//  1. the K-DB storing past user feedback and dataset characterizations,
//  2. an algorithm identifying *viable* end-goals for a dataset
//     (formal feasibility rules over the statistical descriptor), and
//  3. an algorithm selecting the end-goals *of interest* to the user,
//     framed as a classification problem trained on past interactions
//     (the more feedback, the more accurate the model).
package endgoal

import (
	"fmt"
	"sort"

	"adahealth/internal/classify"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/stats"
	"adahealth/internal/vec"
)

// ID names an analysis end-goal.
type ID string

// The end-goal catalog, drawn from the healthcare analyses the paper's
// introduction motivates.
const (
	GoalPatientGroups    ID = "patient-group-discovery"
	GoalExamPatterns     ID = "common-exam-patterns"
	GoalCompliance       ID = "treatment-compliance"
	GoalOutcome          ID = "outcome-prediction"
	GoalAdverseEvents    ID = "adverse-event-monitoring"
	GoalResourcePlanning ID = "resource-planning"
)

// Goal is one catalog entry with its feasibility rule.
type Goal struct {
	ID          ID
	Name        string
	Description string
	// Algorithm is the mining family that realizes the goal.
	Algorithm string
	// check returns whether the goal is viable on a dataset with the
	// given characterization, with a human-readable reason.
	check func(stats.Descriptor) (bool, string)
}

// Catalog returns the built-in goals in a deterministic order.
func Catalog() []Goal {
	return []Goal{
		{
			ID:          GoalPatientGroups,
			Name:        "Discover groups of patients with similar clinical history",
			Description: "Cluster patients by examination history (precision-medicine cohorts).",
			Algorithm:   "clustering",
			check: func(d stats.Descriptor) (bool, string) {
				switch {
				case d.NumPatients < 50:
					return false, fmt.Sprintf("needs >= 50 patients, dataset has %d", d.NumPatients)
				case d.NumExamTypes < 5:
					return false, fmt.Sprintf("needs >= 5 exam types, dataset has %d", d.NumExamTypes)
				case d.RecordsPerPatient.Mean < 2:
					return false, "patients average fewer than 2 records: histories too thin to group"
				}
				return true, "enough patients with non-trivial histories"
			},
		},
		{
			ID:          GoalExamPatterns,
			Name:        "Identify examinations commonly prescribed together",
			Description: "Frequent-pattern discovery over per-visit exam baskets (MeTA-style).",
			Algorithm:   "frequent-patterns",
			check: func(d stats.Descriptor) (bool, string) {
				switch {
				case d.NumVisits < 100:
					return false, fmt.Sprintf("needs >= 100 visits, dataset has %d", d.NumVisits)
				case d.ExamsPerVisit.Mean < 1.3:
					return false, "visits average close to a single exam: no co-occurrence signal"
				}
				return true, "visits carry multiple exams: co-prescription patterns extractable"
			},
		},
		{
			ID:          GoalCompliance,
			Name:        "Assess adherence of prescriptions to clinical guidelines",
			Description: "Compare longitudinal exam sequences against guideline templates.",
			Algorithm:   "frequent-patterns",
			check: func(d stats.Descriptor) (bool, string) {
				switch {
				case d.SpanDays < 180:
					return false, fmt.Sprintf("needs >= 180 days of history, dataset spans %d", d.SpanDays)
				case d.RecordsPerPatient.Mean < 4:
					return false, "too few records per patient to assess periodic adherence"
				}
				return true, "longitudinal coverage supports adherence assessment"
			},
		},
		{
			ID:          GoalOutcome,
			Name:        "Predict and assess the outcome of medical treatments",
			Description: "Supervised prediction of treatment outcomes.",
			Algorithm:   "classification",
			check: func(d stats.Descriptor) (bool, string) {
				// Examination logs carry no outcome labels; the goal
				// becomes viable only for datasets that provide them.
				if !d.HasOutcomeLabels {
					return false, "dataset has no outcome labels (examination logs record events, not outcomes)"
				}
				if d.NumPatients < 100 {
					return false, fmt.Sprintf("needs >= 100 labelled patients, dataset has %d", d.NumPatients)
				}
				return true, "labelled outcomes available"
			},
		},
		{
			ID:          GoalAdverseEvents,
			Name:        "Monitor adverse events and interactions beyond clinical trials",
			Description: "High-lift association rules flag unexpected exam/treatment co-occurrences.",
			Algorithm:   "association-rules",
			check: func(d stats.Descriptor) (bool, string) {
				if d.NumVisits < 500 {
					return false, fmt.Sprintf("needs >= 500 visits for stable lift estimates, dataset has %d", d.NumVisits)
				}
				return true, "enough transactions for stable association statistics"
			},
		},
		{
			ID:          GoalResourcePlanning,
			Name:        "Plan resource allocation and reduce costs",
			Description: "Volume and seasonality analysis of examination demand.",
			Algorithm:   "statistics",
			check: func(d stats.Descriptor) (bool, string) {
				switch {
				case d.SpanDays < 90:
					return false, fmt.Sprintf("needs >= 90 days of history, dataset spans %d", d.SpanDays)
				case d.NumRecords < 1000:
					return false, fmt.Sprintf("needs >= 1000 records for stable demand estimates, dataset has %d", d.NumRecords)
				}
				return true, "volume and span support demand estimation"
			},
		},
	}
}

// Recommendation is the verdict for one goal on one dataset.
type Recommendation struct {
	Goal     Goal
	Feasible bool
	Reason   string
	// Interest is the predicted degree of interestingness for this
	// user base, learned from K-DB feedback when available.
	Interest knowledge.Interest
	// Score orders recommendations (higher first).
	Score float64
	// Source explains where Interest came from: "model" or "prior".
	Source string
}

// Recommender predicts viable and interesting end-goals.
type Recommender struct {
	kdb   *kdb.KDB
	goals []Goal
}

// minFeedback is the number of goal-labelled feedback entries required
// before the learned model replaces the priors.
const minFeedback = 6

// NewRecommender builds a recommender over a knowledge base (which may
// be nil for a pure-feasibility recommender).
func NewRecommender(k *kdb.KDB) *Recommender {
	return &Recommender{kdb: k, goals: Catalog()}
}

// Recommend evaluates every catalog goal against the descriptor:
// feasibility first, then interest prediction from accumulated
// feedback (falling back to exploratory-first priors, per the paper's
// preference for algorithms that "do not require apriori knowledge").
func (r *Recommender) Recommend(d stats.Descriptor) ([]Recommendation, error) {
	goalIndex := r.goalIndex()
	model, trained, err := r.trainInterestModel(goalIndex)
	if err != nil {
		return nil, err
	}
	return r.recommend(d, goalIndex, model, trained), nil
}

// goalIndex maps each catalog goal to its position.
func (r *Recommender) goalIndex() map[ID]int {
	goalIndex := make(map[ID]int, len(r.goals))
	for i, g := range r.goals {
		goalIndex[g.ID] = i
	}
	return goalIndex
}

// recommend judges every goal on d, predicting interest with model
// when trained and from the priors otherwise.
func (r *Recommender) recommend(d stats.Descriptor, goalIndex map[ID]int, model classify.Classifier, trained bool) []Recommendation {
	out := make([]Recommendation, 0, len(r.goals))
	for _, g := range r.goals {
		ok, reason := g.check(d)
		rec := Recommendation{Goal: g, Feasible: ok, Reason: reason}
		if trained {
			cls := model.Predict(featuresFor(d, goalIndex[g.ID], len(r.goals)))
			rec.Interest = interestFromClass(cls)
			rec.Source = "model"
		} else {
			rec.Interest = priorInterest(g.ID)
			rec.Source = "prior"
		}
		rec.Score = scoreOf(rec)
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Feasible != out[j].Feasible {
			return out[i].Feasible
		}
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Goal.ID < out[j].Goal.ID
	})
	return out
}

// priorInterest encodes the paper's exploratory-first stance.
func priorInterest(id ID) knowledge.Interest {
	switch id {
	case GoalPatientGroups, GoalExamPatterns:
		return knowledge.InterestHigh
	case GoalAdverseEvents, GoalCompliance:
		return knowledge.InterestMedium
	default:
		return knowledge.InterestLow
	}
}

func interestFromClass(c int) knowledge.Interest {
	switch c {
	case 2:
		return knowledge.InterestHigh
	case 1:
		return knowledge.InterestMedium
	default:
		return knowledge.InterestLow
	}
}

func scoreOf(rec Recommendation) float64 {
	s := float64(knowledge.InterestScore(rec.Interest))
	if !rec.Feasible {
		s -= 10
	}
	return s
}

// featuresFor encodes (dataset descriptor, goal) for the interest
// classifier: goal one-hot plus the descriptor statistics the
// feasibility rules read.
func featuresFor(d stats.Descriptor, goalIdx, numGoals int) []float64 {
	x := make([]float64, 0, numGoals+9)
	for i := 0; i < numGoals; i++ {
		if i == goalIdx {
			x = append(x, 1)
		} else {
			x = append(x, 0)
		}
	}
	x = append(x,
		float64(d.NumPatients),
		float64(d.NumRecords),
		float64(d.NumExamTypes),
		float64(d.NumVisits),
		d.VSMSparsity,
		d.FrequencyEntropyNorm,
		d.FrequencyGini,
		d.RecordsPerPatient.Mean,
		d.ExamsPerVisit.Mean,
	)
	return x
}

// trainInterestModel builds the decision-tree interest predictor from
// the K-DB's catalog-goal feedback joined with stored descriptors. The
// K-DB selects those rows on their goal and decodes only them, so rows
// with another goal (the recall hit/miss rows older builds wrote) cost
// the trainer nothing.
// trained is false when there is not enough feedback yet.
func (r *Recommender) trainInterestModel(goalIndex map[ID]int) (classify.Classifier, bool, error) {
	if r.kdb == nil {
		return nil, false, nil
	}
	feedback, err := r.kdb.GoalFeedback(func(goal string) bool {
		_, ok := goalIndex[ID(goal)]
		return ok
	})
	if err != nil {
		return nil, false, err
	}
	return r.fitInterestModel(feedback, goalIndex)
}

// fitInterestModel trains on the feedback entries labelled with a
// catalog goal whose dataset has a stored descriptor (other entries
// are skipped).
func (r *Recommender) fitInterestModel(feedback []kdb.Feedback, goalIndex map[ID]int) (classify.Classifier, bool, error) {
	descs, err := r.kdb.Descriptors()
	if err != nil {
		return nil, false, err
	}
	descByName := map[string]stats.Descriptor{}
	for _, d := range descs {
		descByName[d.DatasetName] = d
	}

	var X [][]float64
	var y []int
	for _, fb := range feedback {
		gi, ok := goalIndex[ID(fb.Goal)]
		if !ok {
			continue
		}
		d, ok := descByName[fb.Dataset]
		if !ok {
			continue
		}
		score := knowledge.InterestScore(fb.Interest)
		if score < 0 {
			continue
		}
		X = append(X, featuresFor(d, gi, len(r.goals)))
		y = append(y, score)
	}
	if len(X) < minFeedback {
		return nil, false, nil
	}
	tree := classify.NewDecisionTree(classify.TreeOptions{MaxDepth: 6, MinSamplesLeaf: 1})
	// The descriptor features are few and dense; the tree takes them
	// as a CSR matrix all the same.
	if err := tree.Fit(vec.NewCSRFromDense(X), y); err != nil {
		return nil, false, fmt.Errorf("endgoal: training interest model: %w", err)
	}
	return tree, true, nil
}
