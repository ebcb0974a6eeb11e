package service

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"adahealth/internal/core"
	"adahealth/internal/kdb"
)

// strippedReport drops the execution telemetry (stage timings,
// observed concurrency) and the recommendation closures — the only
// Report content allowed to vary between runs of the same job — so the
// rest compares with reflect.DeepEqual.
func strippedReport(rep *core.Report) core.Report {
	c := *rep
	c.Stages = nil
	c.StageConcurrency = 0
	c.Recommendations = nil
	return c
}

// TestServiceArenaReportsBitForBit runs the same job sequence through
// a single-worker service, whose engine's one arena stays warm across
// jobs, and through a fresh engine and service per job, and requires
// identical Reports job for job. Each side keeps one K-DB for the whole
// sequence (the fresh engines share theirs through core.NewWithKDB),
// so both recall the same history and only the arena's warmth differs.
func TestServiceArenaReportsBitForBit(t *testing.T) {
	seeds := []int64{1, 7, 42, 7} // repeated log exercises fully warm slabs
	runJob := func(svc *Service, i int, seed int64) core.Report {
		j, err := svc.Submit(context.Background(), testLog(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d (seed %d): %v", i, seed, err)
		}
		return strippedReport(rep)
	}
	cfg := Config{Workers: 1, QueueDepth: 8}

	k, err := kdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = k.Close() })
	fresh := make([]core.Report, len(seeds))
	for i, seed := range seeds {
		engine, err := core.NewWithKDB(fastConfig(1), k)
		if err != nil {
			t.Fatal(err)
		}
		svc := NewWithEngine(engine, cfg)
		fresh[i] = runJob(svc, i, seed)
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}

	cfg.Engine = fastConfig(1)
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	for i, seed := range seeds {
		if rep := runJob(svc, i, seed); !reflect.DeepEqual(rep, fresh[i]) {
			t.Errorf("job %d (seed %d): warm-arena report differs from a fresh engine's", i, seed)
		}
	}
}

// TestServiceArenaConcurrentSoak hammers one shared arena from
// concurrent worker slots under the race detector: every job must
// complete successfully with a non-nil report while slabs are checked
// out and returned across overlapping sweeps.
func TestServiceArenaConcurrentSoak(t *testing.T) {
	n := 10
	if testing.Short() {
		n = 5
	}
	svc, err := New(Config{Engine: fastConfig(1), Workers: 3, QueueDepth: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })

	var wg sync.WaitGroup
	jobs := make([]*Job, n)
	for i := 0; i < n; i++ {
		log := testLog(t, int64(i%4+1))
		log.Name = fmt.Sprintf("arena-soak-%d", i)
		j, err := submitRetry(context.Background(), svc, log)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
		wg.Add(1)
		go func(j *Job) {
			defer wg.Done()
			_, _ = j.Wait(context.Background())
		}(j)
	}
	wg.Wait()
	for i, j := range jobs {
		if rep, ok := j.Report(); j.Status() != StatusDone || !ok || rep == nil {
			t.Errorf("job %d: status %s (err %v), want done with report", i, j.Status(), j.Err())
		}
	}
}
