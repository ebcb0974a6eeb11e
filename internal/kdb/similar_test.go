package kdb

import (
	"testing"

	"adahealth/internal/stats"
)

func descFixture(name string, patients, records int, sparsity float64) stats.Descriptor {
	return stats.Descriptor{
		DatasetName:  name,
		NumPatients:  patients,
		NumRecords:   records,
		NumExamTypes: 47,
		NumVisits:    records / 2,
		RecordsPerPatient: stats.Summary{
			Mean: float64(records) / float64(patients),
		},
		ExamsPerVisit:        stats.Summary{Mean: 2.0},
		Age:                  stats.Summary{Mean: 55},
		VSMSparsity:          sparsity,
		FrequencyEntropyNorm: 0.8,
		FrequencyGini:        0.5,
		Top20Coverage:        0.7,
		Top40Coverage:        0.85,
	}
}

func TestSimilarDatasets(t *testing.T) {
	k, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	// Twin datasets (same scale/shape), one mid-size, one tiny.
	twinA := descFixture("twin-a", 6380, 340000, 0.88)
	twinB := descFixture("twin-b", 6400, 342000, 0.879)
	mid := descFixture("mid", 3000, 90000, 0.80)
	tiny := descFixture("tiny", 50, 400, 0.30)
	// tiny differs in shape as well as scale.
	tiny.ExamsPerVisit.Mean = 5.5
	tiny.Age.Mean = 9
	tiny.FrequencyEntropyNorm = 0.2
	tiny.FrequencyGini = 0.95
	tiny.Top20Coverage = 0.99
	tiny.Top40Coverage = 0.995
	for _, d := range []stats.Descriptor{twinB, mid, tiny, twinA} {
		if err := k.StoreAnalysis(d, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, targetDocID, _ := k.LatestDescriptor("twin-a")

	hits, err := k.SimilarDatasets(twinA, targetDocID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		t.Fatalf("hits = %d, want 3 (own descriptor excluded)", len(hits))
	}
	for _, h := range hits {
		if h.DocID == targetDocID {
			t.Error("own descriptor not excluded")
		}
	}
	if hits[0].Dataset != "twin-b" {
		t.Errorf("best match = %s, want twin-b", hits[0].Dataset)
	}
	if hits[0].Similarity < 0.95 {
		t.Errorf("twin similarity = %v, want >= 0.95", hits[0].Similarity)
	}
	if hits[len(hits)-1].Dataset != "tiny" {
		t.Errorf("worst match = %s, want tiny", hits[len(hits)-1].Dataset)
	}
	if hits[len(hits)-1].Similarity > 0.7 {
		t.Errorf("tiny similarity = %v, want well below twins", hits[len(hits)-1].Similarity)
	}

	// An undecodable descriptor document (foreign schema, hand insert)
	// is skipped rather than failing the whole lookup.
	if _, err := k.Store().Collection(CollDescriptors).Insert(map[string]any{
		"dataset": "corrupt", "records_per_patient": "not-a-summary",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := k.SimilarDatasets(twinA, targetDocID, 0); err != nil {
		t.Errorf("corrupt descriptor failed the lookup: %v", err)
	}

	// A repeat analysis of the same dataset name matches its own
	// earlier descriptor when only the new doc is excluded.
	if err := k.StoreAnalysis(twinA, nil); err != nil {
		t.Fatal(err)
	}
	_, rerunDocID, _ := k.LatestDescriptor("twin-a")
	hits, err = k.SimilarDatasets(twinA, rerunDocID, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Dataset != "twin-a" || hits[0].Similarity != 1 {
		t.Errorf("repeat-analysis recall = %+v, want twin-a at similarity 1", hits)
	}
}
