package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/synth"
)

// readSSE consumes a text/event-stream body until it closes, returning
// the decoded StageEvents.
func readSSE(t *testing.T, resp *http.Response) []StageEvent {
	t.Helper()
	defer resp.Body.Close()
	var events []StageEvent
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev StageEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := scanner.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return events
}

// TestDaemonEventStream submits a job and follows its SSE stream: the
// stream must deliver the lifecycle in order, include per-stage
// start/finish pairs, and close by itself after the terminal event.
func TestDaemonEventStream(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	synthCfg := synth.SmallConfig()
	resp, body := postJSON(t, srv, "/v1/analyses", SubmitRequest{
		Name: "sse", Synthetic: &synthCfg, Seed: ptr(int64(1)),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	streamResp, err := http.Get(srv.URL + "/v1/analyses/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := streamResp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	events := readSSE(t, streamResp) // returns only when the daemon closes the stream

	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	if events[0].Phase != string(StatusQueued) {
		t.Errorf("first event = %+v, want queued", events[0])
	}
	last := events[len(events)-1]
	if last.Phase != string(StatusDone) || last.Stage != "" {
		t.Errorf("terminal event = %+v, want done lifecycle", last)
	}
	stages := map[string]int{}
	for _, ev := range events {
		if ev.Stage != "" && ev.Phase == "finish" {
			stages[ev.Stage]++
		}
	}
	for _, want := range []string{"characterize", "recall", "sweep", "rank"} {
		if stages[want] != 1 {
			t.Errorf("stage %s finish events = %d, want 1", want, stages[want])
		}
	}

	// A late subscriber gets the full replay and an immediate close.
	lateResp, err := http.Get(srv.URL + "/v1/analyses/" + sub.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	late := readSSE(t, lateResp)
	if len(late) != len(events) {
		t.Errorf("late subscriber got %d events, first got %d", len(late), len(events))
	}
}

// TestSubscribeMultiConsumer checks the Job-level semantics: two
// concurrent subscribers both drain the complete stream, and cancel
// releases a subscription early.
func TestSubscribeMultiConsumer(t *testing.T) {
	svc, started, release, _ := blockingService(t, 1, 4)
	job, err := svc.Submit(t.Context(), testLog(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	a, cancelA := job.Subscribe()
	b, cancelB := job.Subscribe()
	defer cancelA()
	cancelB() // immediate cancel: channel closes, no events lost for a

	if _, open := <-b; open {
		// Drain until close; a replayed "queued"/"running" may arrive
		// before the close, which is fine.
		for range b {
		}
	}

	close(release)
	if _, err := job.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	var got []StageEvent
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, open := <-a:
			if !open {
				if len(got) == 0 || got[len(got)-1].Phase != string(StatusDone) {
					t.Fatalf("subscriber stream = %+v, want terminal done", got)
				}
				return
			}
			got = append(got, ev)
		case <-deadline:
			t.Fatal("subscriber stream never closed")
		}
	}
}

// waitGoroutines waits for the goroutine count to fall back to base,
// dumping all stacks on timeout — the SSE lifecycle tests' leak check.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d running, want <= %d\n%s",
		runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
}

// TestSSEClientDisconnectMidStream: a client dropping its SSE
// connection mid-job must release the subscription and its handler
// goroutine (no leak), without disturbing the job or later finish
// processing (the subscriber channel is closed exactly once, by the
// handler's cancel — finish then finds it already gone).
func TestSSEClientDisconnectMidStream(t *testing.T) {
	svc, started, release, _ := blockingService(t, 1, 4)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	job, err := svc.Submit(t.Context(), testLog(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/analyses/"+job.ID()+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read until the replayed "running" event proves the handler is
	// subscribed and streaming, then drop the connection mid-stream.
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading stream: %v", err)
		}
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, string(StatusRunning)) {
			break
		}
	}
	cancel()
	resp.Body.Close()
	waitGoroutines(t, base)

	// The job is unaffected by its audience leaving.
	close(release)
	if _, err := job.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestSSEJobCancelClosesStream: cancelling a queued job terminates a
// live SSE stream with the cancelled lifecycle event, closes it (the
// stream reader returns), and leaks no goroutine.
func TestSSEJobCancelClosesStream(t *testing.T) {
	svc, started, release, _ := blockingService(t, 1, 4)
	defer close(release)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// Occupy the single worker so the second job stays queued.
	if _, err := svc.Submit(t.Context(), testLog(t, 1)); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := svc.Submit(t.Context(), testLog(t, 2))
	if err != nil {
		t.Fatal(err)
	}

	base := runtime.NumGoroutine()
	resp, err := http.Get(srv.URL + "/v1/analyses/" + queued.ID() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		queued.Cancel()
	}()
	events := readSSE(t, resp) // returns only if finish closes the stream
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	if last := events[len(events)-1]; last.Phase != string(StatusCancelled) {
		t.Fatalf("terminal event = %+v, want cancelled", last)
	}
	// The cleanly-finished stream leaves a reusable keep-alive
	// connection (two transport goroutines) in the shared client's
	// pool; drop it so the leak check sees only real leaks.
	http.DefaultClient.CloseIdleConnections()
	waitGoroutines(t, base)
}

// TestSubscribeCancelAfterFinish: finish closes every live subscriber
// channel; a subscription cancel arriving after that (an SSE handler
// unwinding late) must be a no-op, not a second close. Cancel is also
// idempotent.
func TestSubscribeCancelAfterFinish(t *testing.T) {
	svc, started, release, _ := blockingService(t, 1, 4)
	job, err := svc.Submit(t.Context(), testLog(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ch, cancel := job.Subscribe()
	close(release)
	if _, err := job.Wait(t.Context()); err != nil {
		t.Fatal(err)
	}
	for range ch {
		// drain until finish's close
	}
	cancel() // after finish: must not double-close
	cancel() // and idempotent
}

// TestDaemonKnowledgeAndSimilarEndpoints covers the K-DB query surface
// of the daemon: knowledge items (plain and metric-ranked) and the
// descriptor-similarity lookup.
func TestDaemonKnowledgeAndSimilarEndpoints(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// Analyze two similar synthetic datasets so the K-DB has content.
	for i, name := range []string{"cohort-a", "cohort-b"} {
		synthCfg := synth.SmallConfig()
		resp, body := postJSON(t, srv, "/v1/analyses", SubmitRequest{
			Name: name, Synthetic: &synthCfg, Seed: ptr(int64(i + 1)),
		})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s = %d: %s", name, resp.StatusCode, body)
		}
		var sub SubmitResponse
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		job, ok := svc.Job(sub.ID)
		if !ok {
			t.Fatal("job lookup failed")
		}
		if _, err := job.Wait(t.Context()); err != nil {
			t.Fatal(err)
		}
	}

	var kn struct {
		Count int              `json:"count"`
		Items []knowledge.Item `json:"items"`
	}
	if code := getJSON(t, srv, "/v1/knowledge?dataset=cohort-a", &kn); code != http.StatusOK {
		t.Fatalf("knowledge = %d", code)
	}
	if kn.Count == 0 || len(kn.Items) != kn.Count {
		t.Fatalf("knowledge count = %d items = %d", kn.Count, len(kn.Items))
	}
	for _, it := range kn.Items {
		if it.Dataset != "cohort-a" {
			t.Errorf("foreign item in dataset query: %+v", it.ID)
		}
	}

	// Metric-ranked: top patterns by support, descending.
	if code := getJSON(t, srv, "/v1/knowledge?dataset=cohort-a&metric=support&limit=5", &kn); code != http.StatusOK {
		t.Fatalf("ranked knowledge = %d", code)
	}
	if kn.Count == 0 || kn.Count > 5 {
		t.Fatalf("ranked count = %d", kn.Count)
	}
	for i := 1; i < len(kn.Items); i++ {
		if kn.Items[i-1].Metrics["support"] < kn.Items[i].Metrics["support"] {
			t.Error("ranked knowledge not descending by support")
		}
	}

	var sim struct {
		Dataset string                  `json:"dataset"`
		Similar []kdb.DatasetSimilarity `json:"similar"`
	}
	if code := getJSON(t, srv, "/v1/datasets/cohort-a/similar", &sim); code != http.StatusOK {
		t.Fatalf("similar = %d", code)
	}
	if len(sim.Similar) != 1 || sim.Similar[0].Dataset != "cohort-b" {
		t.Fatalf("similar = %+v, want cohort-b", sim.Similar)
	}
	if sim.Similar[0].Similarity < 0.9 {
		t.Errorf("twin similarity = %v", sim.Similar[0].Similarity)
	}

	if code := getJSON(t, srv, "/v1/datasets/nope/similar", nil); code != http.StatusNotFound {
		t.Errorf("unknown dataset similar = %d, want 404", code)
	}
	if code := getJSON(t, srv, "/v1/knowledge?limit=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bad limit = %d, want 400", code)
	}
}

// TestFailedJobStoresNoDescriptor: a job that fails before
// store-knowledge leaves nothing in the K-DB, so the similar endpoint
// knows no descriptor of its dataset (404). The sweep grid holds a K
// above the log's 300 patients, which the sweep stage refuses, after
// characterize has run.
func TestFailedJobStoresNoDescriptor(t *testing.T) {
	cfg := fastConfig(1)
	cfg.KDBDir = t.TempDir()
	cfg.Sweep.Ks = []int{3, 4, 1000}
	svc, err := New(Config{Engine: cfg, Workers: 1, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	log := testLog(t, 1)
	j, err := svc.Submit(t.Context(), log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(t.Context()); err == nil || !strings.Contains(err.Error(), "K=1000 exceeds") {
		t.Fatalf("job error = %v, want the sweep's refusal of K=1000", err)
	}
	counts := svc.Engine().KDB().Counts()
	if n := counts[kdb.CollDescriptors] + counts[kdb.CollClusterKI] + counts[kdb.CollPatternKI]; n != 0 {
		t.Fatalf("a job that failed in the sweep stored %d documents: %v", n, counts)
	}
	if code := getJSON(t, srv, "/v1/datasets/"+log.Name+"/similar", nil); code != http.StatusNotFound {
		t.Fatalf("similar for a failed job's dataset = %d, want 404", code)
	}
}
