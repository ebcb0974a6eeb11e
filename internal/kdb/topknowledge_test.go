package kdb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"adahealth/internal/docstore"
	"adahealth/internal/knowledge"
	"adahealth/internal/obs"
)

func TestTopKnowledge(t *testing.T) {
	k, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	items := []knowledge.Item{
		{ID: "p1", Kind: knowledge.KindPattern, Dataset: "d",
			Metrics: map[string]float64{"support": 10}},
		{ID: "p2", Kind: knowledge.KindPattern, Dataset: "d",
			Metrics: map[string]float64{"support": 40}},
		{ID: "p3", Kind: knowledge.KindPattern, Dataset: "d",
			Metrics: map[string]float64{"support": 25}},
		{ID: "c1", Kind: knowledge.KindCluster, Dataset: "d",
			Metrics: map[string]float64{"size": 99}}, // no "support"
	}
	if err := k.StoreKnowledgeItems(items); err != nil {
		t.Fatal(err)
	}
	top, err := k.TopKnowledge("d", "support", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].ID != "p2" || top[1].ID != "p3" {
		t.Errorf("top = %v", ids(top))
	}
	all, err := k.TopKnowledge("d", "support", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Errorf("items lacking the metric not excluded: %v", ids(all))
	}
}

func TestTopKnowledgeTieBreakByID(t *testing.T) {
	k, _ := Open("")
	items := []knowledge.Item{
		{ID: "b", Kind: knowledge.KindPattern, Dataset: "d",
			Metrics: map[string]float64{"support": 5}},
		{ID: "a", Kind: knowledge.KindPattern, Dataset: "d",
			Metrics: map[string]float64{"support": 5}},
	}
	if err := k.StoreKnowledgeItems(items); err != nil {
		t.Fatal(err)
	}
	top, err := k.TopKnowledge("d", "support", 0)
	if err != nil {
		t.Fatal(err)
	}
	if top[0].ID != "a" {
		t.Errorf("tie-break = %v", ids(top))
	}
}

func ids(items []knowledge.Item) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = it.ID
	}
	return out
}

// referenceTopKnowledge is TopKnowledge as it was first written:
// decode every item in scope, keep those holding the metric, and
// stable-sort by descending metric with the ID as tie-break.
func referenceTopKnowledge(k *KDB, datasetName, metric string, n int) ([]knowledge.Item, error) {
	items, err := k.KnowledgeItems(datasetName, 0)
	if err != nil {
		return nil, err
	}
	withMetric := items[:0]
	for _, it := range items {
		if _, ok := it.Metrics[metric]; ok {
			withMetric = append(withMetric, it)
		}
	}
	sort.SliceStable(withMetric, func(i, j int) bool {
		mi, mj := withMetric[i].Metrics[metric], withMetric[j].Metrics[metric]
		if mi != mj {
			return mi > mj
		}
		return withMetric[i].ID < withMetric[j].ID
	})
	if n > 0 && len(withMetric) > n {
		withMetric = withMetric[:n]
	}
	return withMetric, nil
}

// randomItems draws n knowledge items over two datasets and every
// kind (so both collections fill), with IDs from a small pool (an ID
// can sit in both collections), metric values from a small set (ties)
// and each metric present only sometimes.
func randomItems(rng *rand.Rand, n int) []knowledge.Item {
	kinds := []knowledge.Kind{knowledge.KindClusterSet, knowledge.KindCluster, knowledge.KindPattern, knowledge.KindRule}
	values := []float64{0.5, 1, 2, 3}
	items := make([]knowledge.Item, n)
	for i := range items {
		it := knowledge.Item{
			ID:      fmt.Sprintf("i%02d", rng.Intn(3*n/2+1)),
			Kind:    kinds[rng.Intn(len(kinds))],
			Dataset: []string{"a", "b"}[rng.Intn(2)],
			Title:   fmt.Sprintf("item %d", i),
			Tags:    []string{"T1", "T2"}[:rng.Intn(3)],
		}
		for _, m := range []string{"support", "lift", "size"} {
			if rng.Intn(3) > 0 {
				if it.Metrics == nil {
					it.Metrics = map[string]float64{}
				}
				it.Metrics[m] = values[rng.Intn(len(values))]
			}
		}
		items[i] = it
	}
	return items
}

// checkTopKnowledge compares TopKnowledge with the reference on every
// scope, metric and n of the grid.
func checkTopKnowledge(t *testing.T, k *KDB) {
	t.Helper()
	for _, ds := range []string{"", "a", "b", "none"} {
		for _, metric := range []string{"support", "lift", "size", "absent"} {
			for _, n := range []int{0, 1, 3, 1000} {
				want, werr := referenceTopKnowledge(k, ds, metric, n)
				got, err := k.TopKnowledge(ds, metric, n)
				if (err != nil) != (werr != nil) {
					t.Fatalf("TopKnowledge(%q, %q, %d) error %v, reference %v", ds, metric, n, err, werr)
				}
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("TopKnowledge(%q, %q, %d) = %v, reference %v", ds, metric, n, ids(got), ids(want))
				}
			}
		}
	}
}

// TestTopKnowledgeMatchesReference: on random items in both knowledge
// collections — metric ties broken by ID, items lacking the metric,
// scoped and unscoped, n = 0 and n past the matches — TopKnowledge
// returns exactly the reference's items, on the leader and on a
// follower fed the leader's WAL.
func TestTopKnowledgeMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			leader, err := Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer leader.Close()
			rng := rand.New(rand.NewSource(seed))
			for batch := 0; batch < 3; batch++ {
				if err := leader.StoreKnowledgeItems(randomItems(rng, 12)); err != nil {
					t.Fatal(err)
				}
			}
			checkTopKnowledge(t, leader)
			checkTopKnowledge(t, Follower(replicaOf(t, leader).Store()))
		})
	}
}

// replicaOf ships the leader's durable log into a fresh replica, which
// the test's cleanup closes.
func replicaOf(t *testing.T, leader *KDB) *docstore.Replica {
	t.Helper()
	rep, err := docstore.OpenReplica(docstore.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	if rep.NeedsBootstrap() {
		snapPos, files, err := leader.Store().SnapshotBootstrap()
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.InstallSnapshot(snapPos.Epoch, files); err != nil {
			t.Fatal(err)
		}
	}
	reader, err := leader.Store().WALReader()
	if err != nil {
		t.Fatal(err)
	}
	pos := rep.Position()
	for {
		data, leaderPos, err := reader.Read(pos.Epoch, pos.Offset, docstore.DefaultWALReadChunk)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			if pos.Offset != leaderPos.Offset {
				t.Fatalf("caught up at offset %d, leader at %d", pos.Offset, leaderPos.Offset)
			}
			return rep
		}
		if _, _, err := rep.ApplyFrames(data); err != nil {
			t.Fatal(err)
		}
		pos = rep.Position()
	}
}

// TestTopKnowledgePoisonDocuments: TopKnowledge fails when a document
// it returns does not decode, or when a ranked document's metric or id
// is not of its decoded type; an undecodable document it neither ranks
// nor returns does not fail it.
func TestTopKnowledgePoisonDocuments(t *testing.T) {
	cases := []struct {
		name    string
		doc     docstore.Document
		wantErr bool
	}{
		{"returned doc does not decode", docstore.Document{"id": "bad", "metrics": map[string]any{"support": 20.0}, "tags": "not-a-list"}, true},
		{"ranked below n does not decode", docstore.Document{"id": "bad", "metrics": map[string]any{"support": 1.0}, "tags": "not-a-list"}, false},
		{"unranked doc does not decode", docstore.Document{"id": "bad", "metrics": map[string]any{"lift": "high"}}, false},
		{"ranked metric is a string", docstore.Document{"id": "bad", "metrics": map[string]any{"support": "high"}}, true},
		{"ranked id is a number", docstore.Document{"id": 7.0, "metrics": map[string]any{"support": 1.0}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k, _ := Open("")
			if err := k.StoreKnowledgeItems([]knowledge.Item{
				{ID: "p1", Kind: knowledge.KindPattern, Dataset: "d", Metrics: map[string]float64{"support": 10}},
				{ID: "p2", Kind: knowledge.KindPattern, Dataset: "d", Metrics: map[string]float64{"support": 5}},
			}); err != nil {
				t.Fatal(err)
			}
			doc := tc.doc
			doc["dataset"], doc["kind"] = "d", string(knowledge.KindPattern)
			if _, err := k.Store().Collection(CollPatternKI).Insert(doc); err != nil {
				t.Fatal(err)
			}
			top, err := k.TopKnowledge("d", "support", 2)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("TopKnowledge = %v, want an error", ids(top))
				}
				return
			}
			if err != nil || !reflect.DeepEqual(ids(top), []string{"p1", "p2"}) {
				t.Fatalf("TopKnowledge = %v (err %v), want [p1 p2]", ids(top), err)
			}
		})
	}
}

// TestKnowledgeItemsLimitDecodesOnlyReturned: KnowledgeItems with a
// limit returns the first limit items of the unlimited read and
// decodes only those.
func TestKnowledgeItemsLimitDecodesOnlyReturned(t *testing.T) {
	k, _ := Open("")
	if err := k.StoreKnowledgeItems(randomItems(rand.New(rand.NewSource(1)), 30)); err != nil {
		t.Fatal(err)
	}
	all, err := k.KnowledgeItems("", 0)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Value("kdb_documents_decoded_total")
	got, err := k.KnowledgeItems("", 5)
	if err != nil {
		t.Fatal(err)
	}
	if decoded := obs.Default().Value("kdb_documents_decoded_total") - before; decoded != 5 {
		t.Errorf("KnowledgeItems(limit 5) decoded %v documents, want 5", decoded)
	}
	if !reflect.DeepEqual(got, all[:5]) {
		t.Errorf("KnowledgeItems(limit 5) = %v, want %v", ids(got), ids(all[:5]))
	}
}
