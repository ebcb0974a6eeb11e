package kdb

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"adahealth/internal/docstore"
	"adahealth/internal/stats"
	"adahealth/internal/synth"
)

// TestAppendLiveBatchAllocs pins what a stored document costs on the
// write path of a NoSync durable K-DB: a 300-patient registration
// batch allocates at most 3× its marshalled size, and a descriptor at
// most 4× its own — one marshal, the WAL frame and the store's
// bookkeeping, where a map-shaped store paid about 17× for the batch.
func TestAppendLiveBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what a write allocates")
	}
	k, err := OpenStore(docstore.Options{Dir: t.TempDir(), NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	cfg := synth.DefaultConfig()
	cfg.NumPatients, cfg.TargetRecords, cfg.NumExamTypes = 300, 15*300, 60
	log, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	desc := stats.Characterize(log)
	check := func(what string, v any, limit float64, write func(i int) error) {
		t.Helper()
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		best := ^uint64(0)
		for i := 0; i < 3; i++ {
			best = min(best, allocBytes(func() {
				if err := write(i); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if ratio := float64(best) / float64(len(raw)); ratio > limit {
			t.Errorf("%s allocates %d bytes, %.1f× its %d marshalled bytes, want at most %v×", what, best, ratio, len(raw), limit)
		}
	}
	batch := LiveBatch{Dataset: "ward", Revision: 1, Exams: log.Exams, Patients: log.Patients, Records: log.Records}
	check("a 300-patient registration batch", batch, 3, func(i int) error {
		b := batch
		b.Dataset = fmt.Sprintf("ward-%d", i)
		return k.AppendLiveBatch(b)
	})
	check("a descriptor", desc, 4, func(int) error {
		return k.StoreAnalysis(desc, nil)
	})
}

// allocBytes reports the bytes the process allocates while f runs.
// It collects no garbage first: that would empty encoding/json's
// buffer pool, which a running daemon keeps warm.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
