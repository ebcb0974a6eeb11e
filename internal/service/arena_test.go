package service

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"adahealth/internal/core"
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
// two single-worker services — one with the cross-job arena, one with
// it disabled — and requires identical Reports job for job. Serial
// workers keep the two engines' K-DB evolution in lockstep, so any
// difference is the arena's fault.
func TestServiceArenaReportsBitForBit(t *testing.T) {
	seeds := []int64{1, 7, 42, 7} // repeated log exercises fully warm slabs
	run := func(useArena bool) []core.Report {
		svc, err := New(Config{Engine: fastConfig(1), Workers: 1, QueueDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = svc.Close() })
		if !useArena {
			svc.arena = nil
		}
		reports := make([]core.Report, len(seeds))
		for i, seed := range seeds {
			j, err := svc.Submit(context.Background(), testLog(t, seed))
			if err != nil {
				t.Fatal(err)
			}
			rep, err := j.Wait(context.Background())
			if err != nil {
				t.Fatalf("job %d (seed %d, arena=%v): %v", i, seed, useArena, err)
			}
			reports[i] = strippedReport(rep)
		}
		return reports
	}

	plain := run(false)
	pooled := run(true)
	for i := range seeds {
		if !reflect.DeepEqual(plain[i], pooled[i]) {
			t.Errorf("job %d (seed %d): arena-backed report differs from arena-less run", i, seeds[i])
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
