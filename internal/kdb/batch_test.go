package kdb

import (
	"fmt"
	"sync"
	"testing"

	"adahealth/internal/knowledge"
	"adahealth/internal/obs"
)

func itemsFixture(dataset string, n int) []knowledge.Item {
	items := make([]knowledge.Item, n)
	for i := range items {
		kind := knowledge.KindCluster
		if i%2 == 1 {
			kind = knowledge.KindPattern
		}
		items[i] = knowledge.Item{
			ID: fmt.Sprintf("%s/item-%03d", dataset, i), Kind: kind, Dataset: dataset,
			Title:    fmt.Sprintf("item %d", i),
			Metrics:  map[string]float64{"support": float64(i)},
			Interest: knowledge.InterestUnknown,
		}
	}
	return items
}

// TestConcurrentStoreKnowledgeItemsSameIDs: two analyses of one
// dataset name (a drift resweep beside a user job) store the same item
// IDs at once. Neither may lose the insert-or-update race — a
// "duplicate _id" used to drop every remaining item of the loser into
// Report.Degraded — and each ID ends up stored exactly once.
func TestConcurrentStoreKnowledgeItemsSameIDs(t *testing.T) {
	k, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	const rounds, n = 20, 100
	for round := 0; round < rounds; round++ {
		items := itemsFixture(fmt.Sprintf("ward-%d", round), n)
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for g := range errs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				errs[g] = k.StoreKnowledgeItems(items)
			}(g)
		}
		wg.Wait()
		for g, err := range errs {
			if err != nil {
				t.Fatalf("round %d: writer %d: %v", round, g, err)
			}
		}
	}
	counts := k.Counts()
	if got := counts[CollClusterKI] + counts[CollPatternKI]; got != rounds*n {
		t.Errorf("%d knowledge documents, want exactly %d", got, rounds*n)
	}
}

// TestStoreBatchesShareWALCommits pins what the K-DB write path costs
// in durability waits: one analysis's knowledge items, inserted or
// updated, ride at most two group commits (one when no other
// writer's commit picks up the batch's first frames early), not one
// per document. The count is the observation count of
// docstore_wal_commit_seconds, which the benchmark's
// docstore.fsyncs_per_op derives from.
func TestStoreBatchesShareWALCommits(t *testing.T) {
	k, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	commits := func() float64 { return obs.Default().Value("docstore_wal_commit_seconds") }

	items := itemsFixture("ward-a", 100)
	for pass, what := range []string{"inserting", "updating"} {
		before := commits()
		if err := k.StoreKnowledgeItems(items); err != nil {
			t.Fatal(err)
		}
		if d := commits() - before; d < 1 || d > 2 {
			t.Errorf("pass %d: %s 100 knowledge items took %v WAL commits, want 1 or 2", pass, what, d)
		}
	}

	if got := k.Counts(); got[CollClusterKI]+got[CollPatternKI] != 100 {
		t.Errorf("counts after the batches = %v", got)
	}
}
