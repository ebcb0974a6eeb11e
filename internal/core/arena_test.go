package core

import (
	"context"
	"reflect"
	"testing"

	"adahealth/internal/kdb"
)

// TestAnalyzeArenaMatchesFresh is the cross-job reuse equivalence
// property: analyses on one engine, whose sweeps draw worker slabs
// from its one arena, must produce bit-for-bit identical Reports to a
// fresh engine per log, across a sequence of different logs so later
// jobs run on slabs warmed by earlier ones. Each side keeps one K-DB
// for the whole sequence (the fresh engines share theirs through
// NewWithKDB), so both recall the same history and only the arena's
// warmth differs.
func TestAnalyzeArenaMatchesFresh(t *testing.T) {
	seeds := []int64{1, 7, 42, 7} // repeat a log: fully warm slab path
	ctx := context.Background()
	openKDB := func() *kdb.KDB {
		k, err := kdb.Open("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = k.Close() })
		return k
	}

	freshKDB := openKDB()
	fresh := make([]*Report, len(seeds))
	for i, seed := range seeds {
		e, err := NewWithKDB(seededConfig(1), freshKDB)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.AnalyzeContext(ctx, seededLog(t, seed))
		if err != nil {
			t.Fatalf("seed %d fresh: %v", seed, err)
		}
		fresh[i] = rep
	}

	warm, err := NewWithKDB(seededConfig(1), openKDB())
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		rep, err := warm.AnalyzeContext(ctx, seededLog(t, seed))
		if err != nil {
			t.Fatalf("seed %d warm: %v", seed, err)
		}
		if !reflect.DeepEqual(comparable(rep), comparable(fresh[i])) {
			t.Errorf("job %d (seed %d): warm-arena report differs from a fresh engine's", i, seed)
		}
		if !reflect.DeepEqual(projectRecs(rep), projectRecs(fresh[i])) {
			t.Errorf("job %d (seed %d): warm-arena recommendations differ", i, seed)
		}
	}
}
