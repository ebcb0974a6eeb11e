package kdb

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"adahealth/internal/knowledge"
	"adahealth/internal/stats"
)

// parentResults is every typed read of the K-DB in testdata/parent-kdb,
// as testdata/parent-kdb.golden.json records them.
type parentResults struct {
	Descriptors  []stats.Descriptor
	Knowledge    []knowledge.Item
	ClusterSets  []knowledge.Item
	Feedback     []Feedback
	GoalFeedback []Feedback
	TopSupport   []knowledge.Item
	TopSize      []knowledge.Item
	LiveDatasets []string
	LiveBatches  []LiveBatch
	Similar      []DatasetSimilarity
	Latest       stats.Descriptor
	LatestID     string
	Counts       map[string]int
}

func readParentResults(t *testing.T, k *KDB) parentResults {
	t.Helper()
	var (
		r    parentResults
		errs [10]error
	)
	r.Descriptors, errs[0] = k.Descriptors()
	r.Knowledge, errs[1] = k.KnowledgeItems("", 0)
	r.ClusterSets, errs[2] = k.ClusterSets("ward-a")
	r.Feedback, errs[3] = k.FeedbackFor("")
	r.GoalFeedback, errs[4] = k.GoalFeedback(func(g string) bool { return g != "" })
	r.TopSupport, errs[5] = k.TopKnowledge("", "support", 0)
	r.TopSize, errs[6] = k.TopKnowledge("ward-a", "size", 2)
	r.LiveDatasets, errs[7] = k.LiveDatasets()
	r.LiveBatches, errs[8] = k.LiveBatches("ward-live")
	r.Similar, errs[9] = k.SimilarDatasets(stats.Descriptor{DatasetName: "probe", NumPatients: 120, NumRecords: 900, NumExamTypes: 30, VSMSparsity: 0.6}, "", 0)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	r.Latest, r.LatestID, _ = k.LatestDescriptor("ward-a")
	r.Counts = k.Counts()
	return r
}

// TestOpensParentWrittenKDB: testdata/parent-kdb is a durable K-DB the
// map-shaped store wrote before documents were kept as their bytes —
// descriptors, both knowledge collections, feedback with and without a
// goal, a live dataset folded at revision 4 with two batches after the
// fold, one compaction's snapshots and a WAL tail over them, left
// without a close as a killed daemon leaves it. Opened by this build,
// as a leader and as a follower fed the leader's snapshots and log,
// every typed read returns exactly what that build read
// (testdata/parent-kdb.golden.json).
func TestOpensParentWrittenKDB(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "parent-kdb.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-kdb")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	leader, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	for name, k := range map[string]*KDB{"leader": leader, "follower": Follower(replicaOf(t, leader).Store())} {
		got, err := json.MarshalIndent(readParentResults(t, k), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if got = append(got, '\n'); !bytes.Equal(got, want) {
			t.Errorf("%s reads differ from the golden the parent build wrote:\n%s", name, got)
		}
	}
}
