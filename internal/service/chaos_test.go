package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"adahealth/internal/core"
	"adahealth/internal/docstore"
	"adahealth/internal/faultfs"
	"adahealth/internal/kdb"
	"adahealth/internal/stats"
)

// chaosService builds a service over a fault-injectable persistent
// K-DB: the injector sits under the docstore, a tiny WAL budget makes
// every service-level flush compact (so snapshot faults are reachable),
// and the caller owns both handles for reopen-and-verify scenarios.
func chaosService(t *testing.T, ffs *faultfs.Injector, dir string, workers, depth int) (*Service, *kdb.KDB) {
	t.Helper()
	k, err := kdb.OpenStore(docstore.Options{Dir: dir, FS: ffs, MaxWALBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := core.NewWithKDB(fastConfig(1), k)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewWithEngine(engine, Config{Workers: workers, QueueDepth: depth})
	t.Cleanup(func() {
		_ = svc.Close()
		_ = k.Close()
	})
	return svc, k
}

// waitHealth polls until the service's health gauge reaches want: the
// post-job flush is debounced onto a background goroutine, so flush
// outcomes surface in Health shortly after job completion rather than
// synchronously with it.
func waitHealth(t *testing.T, svc *Service, want string) Health {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h := svc.Health()
		if h.Status == want {
			return h
		}
		if time.Now().After(deadline) {
			t.Fatalf("health never reached %s: %+v", want, h)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitAll(t *testing.T, jobs []*Job) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, j := range jobs {
		if _, err := j.Wait(ctx); err != nil && ctx.Err() != nil {
			t.Fatalf("job %s wedged: %v", j.ID(), err)
		}
	}
}

// TestChaosSnapshotFaultDegradesAndRecovers: a disk that refuses
// snapshot writes fails every service-level flush, but jobs keep
// succeeding (their acks are on the intact WAL), health degrades with
// a flush reason, and once the disk heals the next completion's flush
// restores ok.
func TestChaosSnapshotFaultDegradesAndRecovers(t *testing.T) {
	ffs := faultfs.New(nil, 1)
	svc, _ := chaosService(t, ffs, t.TempDir(), 2, 8)

	if h := svc.Health(); h.Status != HealthOK {
		t.Fatalf("fresh service health = %+v", h)
	}
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: ".json.tmp", Err: faultfs.ENOSPC()})

	// Two failing flushes: below the breaker threshold (the store stays
	// healthy), but the service-level gauge must already degrade.
	var jobs []*Job
	for i := 0; i < 2; i++ {
		log := testLog(t, int64(i+1))
		log.Name = fmt.Sprintf("snap-%d", i)
		j, err := svc.Submit(context.Background(), log)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	waitAll(t, jobs)
	for _, j := range jobs {
		if j.Status() != StatusDone {
			t.Fatalf("job %s = %s (%v), want done despite flush faults", j.ID(), j.Status(), j.Err())
		}
	}
	h := waitHealth(t, svc, HealthDegraded)
	if h.LastFlushError == "" {
		t.Fatalf("health under snapshot faults = %+v, want a flush error", h)
	}

	// Heal the disk: the next job's flush succeeds and health recovers.
	ffs.Clear()
	log := testLog(t, 9)
	log.Name = "snap-heal"
	j, err := svc.Submit(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, []*Job{j})
	if j.Status() != StatusDone {
		t.Fatalf("post-heal job = %s (%v)", j.Status(), j.Err())
	}
	waitHealth(t, svc, HealthOK)
}

// TestChaosWALFaultJobsSucceedDegraded: a broken WAL takes the K-DB
// offline mid-service. Analyses still complete — every K-DB write is
// dropped and counted, recall falls back cold — health reports the
// offline store, and the durable prefix from before the fault survives
// a clean reopen.
func TestChaosWALFaultJobsSucceedDegraded(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(nil, 1)
	svc, k := chaosService(t, ffs, dir, 2, 8)

	// A healthy job first: its knowledge is flushed and durable.
	pre := testLog(t, 1)
	pre.Name = "pre-fault"
	j, err := svc.Submit(context.Background(), pre)
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, []*Job{j})
	if j.Status() != StatusDone {
		t.Fatalf("healthy job = %s (%v)", j.Status(), j.Err())
	}

	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Err: faultfs.ENOSPC()})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		log := testLog(t, int64(i+2))
		log.Name = fmt.Sprintf("wal-%d", i)
		jb, err := svc.Submit(context.Background(), log)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, jb)
	}
	waitAll(t, jobs)
	for _, jb := range jobs {
		if jb.Status() != StatusDone {
			t.Fatalf("job %s over broken WAL = %s (%v), want degraded success", jb.ID(), jb.Status(), jb.Err())
		}
		rep, _ := jb.Report()
		if rep.Degraded == nil || rep.Degraded.DroppedKDBWrites == 0 {
			t.Fatalf("job %s degradation = %+v, want dropped K-DB writes", jb.ID(), rep.Degraded)
		}
	}
	h := svc.Health()
	if h.Status != HealthDegraded || h.KDB.Mode != kdb.ModeOffline {
		t.Fatalf("health over broken WAL = %+v, want degraded/offline", h)
	}

	// The durable prefix survives: close everything, reopen the same
	// directory without faults.
	_ = svc.Close()
	_ = k.Close()
	k2, err := kdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	items, err := k2.KnowledgeItems("pre-fault", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Error("pre-fault knowledge lost across reopen")
	}
}

// TestChaosDegradedShedding: with the K-DB offline and the admission
// queue at least half full, Submit sheds with ErrDegraded; with
// headroom it keeps admitting.
func TestChaosDegradedShedding(t *testing.T) {
	ffs := faultfs.New(nil, 1)
	svc, k := chaosService(t, ffs, t.TempDir(), 1, 4)
	// Block the single worker so queued jobs accumulate.
	release := make(chan struct{})
	svc.runJob = func(j *Job) (*core.Report, error) {
		<-release
		return &core.Report{}, nil
	}
	defer close(release)

	// Break the store directly: one write over a failing WAL trips the
	// breaker offline.
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Err: faultfs.ENOSPC()})
	desc := stats.Descriptor{DatasetName: "shed", NumPatients: 1, NumRecords: 1}
	if err := k.StoreAnalysis(desc, nil); err == nil {
		t.Fatal("write over broken WAL succeeded")
	}
	if k.Health().Mode != kdb.ModeOffline {
		t.Fatal("breaker did not trip offline")
	}

	// Job 1 dispatches (freeing its queue slot); while degraded with an
	// empty queue, admission continues.
	j1, err := svc.Submit(context.Background(), testLog(t, 1))
	if err != nil {
		t.Fatalf("degraded submit with empty queue = %v, want admit", err)
	}
	waitStatus(t, j1, StatusRunning)

	// Fill the queue to the shed threshold: (4+1)/2 = 2 held slots.
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(context.Background(), testLog(t, int64(i+2))); err != nil {
			t.Fatalf("degraded submit %d below threshold = %v, want admit", i, err)
		}
	}
	if _, err := svc.Submit(context.Background(), testLog(t, 5)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("saturated degraded submit = %v, want ErrDegraded", err)
	}
}

// TestChaosPanicIsolatedToJob: a panic escaping one job's execution
// fails that job with a stack-carrying error while the workers keep
// dispatching everything else.
func TestChaosPanicIsolatedToJob(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	svc.runJob = func(j *Job) (*core.Report, error) {
		if j.Labels()["boom"] != "" {
			panic("chaos monkey")
		}
		return svc.defaultRun(j)
	}

	boom, err := svc.Submit(context.Background(), testLog(t, 1), WithLabels(map[string]string{"boom": "1"}))
	if err != nil {
		t.Fatal(err)
	}
	ok1, err := svc.Submit(context.Background(), testLog(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, []*Job{boom, ok1})

	if boom.Status() != StatusFailed {
		t.Fatalf("panicking job = %s, want failed", boom.Status())
	}
	var pe *core.PanicError
	if !errors.As(boom.Err(), &pe) || pe.Value != "chaos monkey" || len(pe.Stack) == 0 {
		t.Fatalf("panicking job err = %v, want stack-carrying *core.PanicError", boom.Err())
	}
	if ok1.Status() != StatusDone {
		t.Fatalf("sibling job = %s (%v), want done", ok1.Status(), ok1.Err())
	}

	// The daemon keeps serving after the panic.
	ok2, err := svc.Submit(context.Background(), testLog(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, []*Job{ok2})
	if ok2.Status() != StatusDone {
		t.Fatalf("post-panic job = %s (%v), want done", ok2.Status(), ok2.Err())
	}
}

// TestChaosSoak drives concurrent submissions through intermittent
// disk faults (slow fsyncs, probabilistic snapshot failures): every
// job must reach a terminal state, every analysis must succeed (the
// faults only ever hit soft paths), the service must recover to ok
// after the faults clear, and every acked write must survive a clean
// reopen.
func TestChaosSoak(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 6
	}
	dir := t.TempDir()
	ffs := faultfs.New(nil, 42)
	svc, k := chaosService(t, ffs, dir, 3, n)
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: ".json.tmp", Prob: 0.5, Err: faultfs.ENOSPC()}).
		Inject(faultfs.Rule{Op: faultfs.OpSync, Prob: 0.3, Delay: 2 * time.Millisecond})

	var (
		mu   sync.Mutex
		jobs []*Job
		wg   sync.WaitGroup
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			log := testLog(t, int64(i+1))
			log.Name = fmt.Sprintf("soak-%d", i)
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			j, err := submitRetry(ctx, svc, log)
			if err != nil {
				t.Errorf("soak submit %d: %v", i, err)
				return
			}
			mu.Lock()
			jobs = append(jobs, j)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	waitAll(t, jobs)
	if len(jobs) != n {
		t.Fatalf("admitted %d jobs, want %d", len(jobs), n)
	}
	// cleanNames are datasets whose jobs had every K-DB write acked: the
	// durability check below may only demand those (a write the breaker
	// refused was counted in Degraded, never acked, so "lost" is the
	// wrong word for it).
	var cleanNames []string
	for _, j := range jobs {
		if !j.Status().Terminal() {
			t.Fatalf("job %s never reached a terminal state: %s", j.ID(), j.Status())
		}
		if j.Status() != StatusDone {
			t.Fatalf("soak job %s = %s (%v), want done (faults are soft)", j.ID(), j.Status(), j.Err())
		}
		rep, _ := j.Report()
		if rep.Degraded == nil || rep.Degraded.DroppedKDBWrites == 0 {
			cleanNames = append(cleanNames, rep.Descriptor.DatasetName)
		}
	}

	// Faults gone: wait out the breaker cooldown (it may have tripped
	// read-only under the probabilistic snapshot failures), then one
	// more job whose flush probe heals everything.
	ffs.Clear()
	time.Sleep(2100 * time.Millisecond)
	log := testLog(t, 99)
	log.Name = "soak-heal"
	j, err := submitRetry(context.Background(), svc, log)
	if err != nil {
		t.Fatal(err)
	}
	waitAll(t, []*Job{j})
	if j.Status() != StatusDone {
		t.Fatalf("heal job = %s (%v)", j.Status(), j.Err())
	}
	waitHealth(t, svc, HealthOK)

	// No lost acks: everything the jobs stored replays on a clean
	// reopen (faults only ever hit snapshot writes; the WAL held).
	_ = svc.Close()
	_ = k.Close()
	k2, err := kdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k2.Close()
	if len(cleanNames) == 0 {
		t.Log("every soak job had dropped writes; durability check vacuous this run")
	}
	for _, name := range cleanNames {
		items, err := k2.KnowledgeItems(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) == 0 {
			t.Errorf("dataset %s: acked knowledge lost across reopen", name)
		}
	}
}
