package service

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adahealth/internal/core"
	"adahealth/internal/faultfs"
	"adahealth/internal/obs"
	"adahealth/internal/stats"
)

// TestMetricsEndpoint: the daemon mux serves the Prometheus exposition
// with the families every layer linked into this binary registers at
// init — present before any traffic, so a scraper sees the full schema
// from the first scrape.
func TestMetricsEndpoint(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE service_queue_depth gauge",
		"# TYPE service_admissions_total counter",
		"# TYPE service_jobs_total counter",
		"# TYPE core_stage_seconds histogram",
		"# TYPE docstore_wal_commit_seconds histogram",
		"# TYPE kdb_breaker_mode gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The queue gauges are live closures over this service's Stats.
	if !strings.Contains(text, "service_workers 1\n") {
		t.Errorf("exposition missing bound worker gauge:\n%s", text)
	}
}

// TestTraceHTMLEndpoint: /v1/analyses/{id}/trace.html answers 409
// while the job runs and, once done, renders the TraceDump as an HTML
// document with an SVG bar per stage.
func TestTraceHTMLEndpoint(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	release := make(chan struct{})
	svc.runJob = func(j *Job) (*core.Report, error) {
		<-release
		t0 := time.Date(2026, 8, 1, 12, 0, 0, 0, time.UTC)
		return &core.Report{
			Descriptor: stats.Descriptor{DatasetName: "trace-ds"},
			Stages: []core.StageTrace{
				{Dataset: "trace-ds", Stage: "characterize", Start: t0, End: t0.Add(40 * time.Millisecond)},
				{Dataset: "trace-ds", Stage: "sweep", Start: t0.Add(40 * time.Millisecond), End: t0.Add(400 * time.Millisecond)},
			},
			StageConcurrency: 2,
		}, nil
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	j, err := svc.Submit(context.Background(), testLog(t, 1))
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/analyses/" + j.ID() + "/trace.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace.html before done = %d, want 409", resp.StatusCode)
	}

	close(release)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(srv.URL + "/v1/analyses/" + j.ID() + "/trace.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace.html = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	html := string(body)
	for _, want := range []string{"<svg", "trace-ds", "characterize", "sweep"} {
		if !strings.Contains(html, want) {
			t.Errorf("trace.html missing %q", want)
		}
	}
	// An unknown job is a plain 404.
	resp404, err := http.Get(srv.URL + "/v1/analyses/job-999999/trace.html")
	if err != nil {
		t.Fatal(err)
	}
	resp404.Body.Close()
	if resp404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace.html = %d, want 404", resp404.StatusCode)
	}
}

// TestAdmissionMetricsMove: shed admissions move the outcome-labeled
// counter — queue_full on a saturated healthy queue, degraded when the
// K-DB is down with the queue past the shed threshold. Deltas, not
// absolutes: the default registry is process-shared.
func TestAdmissionMetricsMove(t *testing.T) {
	reg := obs.Default()
	accepted0 := reg.Value("service_admissions_total", "accepted")
	full0 := reg.Value("service_admissions_total", "queue_full")
	degraded0 := reg.Value("service_admissions_total", "degraded")

	ffs := faultfs.New(nil, 1)
	svc, k := chaosService(t, ffs, t.TempDir(), 1, 4)
	release := make(chan struct{})
	svc.runJob = func(j *Job) (*core.Report, error) {
		<-release
		return &core.Report{}, nil
	}
	defer close(release)

	// Trip the breaker offline, then fill the queue to the shed
	// threshold ((4+1)/2 = 2 held slots after one dispatch).
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Err: faultfs.ENOSPC()})
	if err := k.StoreAnalysis(stats.Descriptor{DatasetName: "shed", NumPatients: 1, NumRecords: 1}, nil); err == nil {
		t.Fatal("write over broken WAL succeeded")
	}
	j1, err := svc.Submit(context.Background(), testLog(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, j1, StatusRunning)
	for i := 0; i < 2; i++ {
		if _, err := svc.Submit(context.Background(), testLog(t, int64(i+2))); err != nil {
			t.Fatalf("submit %d below threshold = %v", i, err)
		}
	}
	if _, err := svc.Submit(context.Background(), testLog(t, 5)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("saturated degraded submit = %v, want ErrDegraded", err)
	}

	if d := reg.Value("service_admissions_total", "degraded") - degraded0; d != 1 {
		t.Errorf("degraded delta = %v, want 1", d)
	}
	if d := reg.Value("service_admissions_total", "accepted") - accepted0; d != 3 {
		t.Errorf("accepted delta = %v, want 3", d)
	}
	if d := reg.Value("service_admissions_total", "queue_full") - full0; d != 0 {
		t.Errorf("queue_full delta = %v, want 0 (shed beat the queue)", d)
	}
}

// TestStageMetricsMove: a finished job's terminal counters move by
// exactly one job — the terminal accounting, no scheduler changes.
func TestStageMetricsMove(t *testing.T) {
	reg := obs.Default()
	done0 := reg.Value("service_jobs_total", "done")
	durInteractive0 := reg.Value("service_job_duration_seconds", "interactive")

	svc, err := New(Config{Engine: fastConfig(1), Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	svc.runJob = func(j *Job) (*core.Report, error) {
		return &core.Report{Stages: []core.StageTrace{
			{Stage: "sweep"},
			{Stage: "cluster"},
		}}, nil
	}

	j, err := svc.Submit(context.Background(), testLog(t, 1), WithPriority(10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	if d := reg.Value("service_jobs_total", "done") - done0; d != 1 {
		t.Errorf("done jobs delta = %v, want 1", d)
	}
	if d := reg.Value("service_job_duration_seconds", "interactive") - durInteractive0; d != 1 {
		t.Errorf("interactive duration observations delta = %v, want 1", d)
	}
}

// TestJobPanicCountedOnce: a panic escaping a job's run outside any
// stage is counted once in core_stage_panics_total, under stage="job".
// (A stage's own panic is the scheduler's to count: see
// TestServiceStagePanicCountedOnce in internal/core.)
func TestJobPanicCountedOnce(t *testing.T) {
	reg := obs.Default()
	job0 := reg.Value("core_stage_panics_total", "job")
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	svc.runJob = func(j *Job) (*core.Report, error) { panic("outside the stages") }

	j, err := svc.Submit(context.Background(), testLog(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	var pe *core.PanicError
	if _, err := j.Wait(context.Background()); !errors.As(err, &pe) {
		t.Fatalf("job err = %v, want *core.PanicError", err)
	}
	if d := reg.Value("core_stage_panics_total", "job") - job0; d != 1 {
		t.Errorf("core_stage_panics_total{stage=job} moved by %v, want 1", d)
	}
}
