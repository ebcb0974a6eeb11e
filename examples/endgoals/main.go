// Self-learning end-goal recommendation: the "core and most
// innovative" component of the ADA-HEALTH vision. This example runs
// two analysis rounds on the same dataset. Between the rounds a
// simulated domain expert grades knowledge items and goals in the
// K-DB; the second round's recommendations and ranking adapt — the
// paper's feedback loop, end to end.
package main

import (
	"fmt"
	"log"

	"adahealth"
)

func main() {
	data, err := adahealth.GenerateSyntheticLog(adahealth.SmallDataConfig())
	if err != nil {
		log.Fatal(err)
	}
	cfg := adahealth.DefaultConfig()
	cfg.Seed = 7
	engine, err := adahealth.NewEngine(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Round 1: cold start — recommendations come from exploratory
	// priors, ranking from raw quality metrics.
	round1, err := engine.Analyze(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("round 1 (no feedback yet):")
	printGoals(round1)

	// The expert navigates the extracted knowledge and grades it:
	// rules about drug/exam interactions fascinate them, broad
	// cluster summaries do not.
	session := adahealth.NewNavigationSession(round1.Ranked, adahealth.NewRanker(), 8)
	page := session.Next()
	for _, item := range page {
		var grade adahealth.Interest
		switch item.Kind {
		case "rule":
			grade = adahealth.InterestHigh
		case "cluster-set":
			grade = adahealth.InterestLow
		default:
			grade = adahealth.InterestMedium
		}
		if err := session.Feedback(item.ID, grade); err != nil {
			log.Fatal(err)
		}
		// The judgement also lands in the K-DB (collection 6), tied to
		// the adverse-event goal the rules serve.
		goal := ""
		if item.Kind == "rule" {
			goal = "adverse-event-monitoring"
		} else if item.Kind == "cluster-set" || item.Kind == "cluster" {
			goal = "patient-group-discovery"
		}
		if err := engine.KDB().RecordFeedback(adahealth.Feedback{
			User: "dr.chen", Dataset: data.Name, ItemID: item.ID,
			ItemKind: string(item.Kind), Goal: goal, Interest: grade,
		}); err != nil {
			log.Fatal(err)
		}
	}
	fb, _ := engine.KDB().FeedbackFor(data.Name)
	fmt.Printf("\nrecorded %d feedback judgements in the K-DB\n\n", len(fb))

	// Round 2: the interest model now trains on the stored feedback.
	round2, err := engine.Analyze(data)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("round 2 (after expert feedback):")
	printGoals(round2)

	fmt.Println("\nK-DB collection sizes (the paper's collections 3–6 plus the live-dataset pair):")
	for name, n := range engine.KDB().Counts() {
		fmt.Printf("  %-18s %d\n", name, n)
	}
}

func printGoals(rep *adahealth.Report) {
	for i, rec := range rep.Recommendations {
		if i >= 4 {
			break
		}
		fmt.Printf("  %d. %-55s interest=%-6s (%s)\n",
			i+1, rec.Goal.Name, rec.Interest, rec.Source)
	}
}
