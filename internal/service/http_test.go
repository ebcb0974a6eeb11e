package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"adahealth/internal/core"
	"adahealth/internal/dataset"
	"adahealth/internal/httpapi"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/stats"
	"adahealth/internal/synth"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func getJSON(t *testing.T, srv *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decoding: %v", path, err)
		}
	}
	return resp.StatusCode
}

// waitDone polls a job's status until it is terminal and fails the
// test unless the job finished done.
func waitDone(t *testing.T, srv *httptest.Server, id string) JobState {
	t.Helper()
	var state JobState
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, srv, "/v1/analyses/"+id, &state); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		if state.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", state.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if state.Status != StatusDone {
		t.Fatalf("job finished %s (%s)", state.Status, state.Error)
	}
	return state
}

// TestDaemonEndToEnd drives the full HTTP lifecycle against a real
// service: submit a synthetic analysis, poll status until done, fetch
// the report, and cancel a second queued job.
func TestDaemonEndToEnd(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// Health before any work.
	var health struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if code := getJSON(t, srv, "/healthz", &health); code != http.StatusOK || health.Status != "ok" {
		t.Fatalf("healthz = %d %q", code, health.Status)
	}

	// Submit a synthetic job.
	synthCfg := synth.SmallConfig()
	resp, body := postJSON(t, srv, "/v1/analyses", SubmitRequest{
		Name:      "e2e",
		Synthetic: &synthCfg,
		Seed:      ptr(int64(1)),
		Labels:    map[string]string{"origin": "httptest"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" {
		t.Fatalf("no job id in %s", body)
	}

	// Report is 409 until the job finishes.
	if code := getJSON(t, srv, "/v1/analyses/"+sub.ID+"/report", nil); code != http.StatusConflict && code != http.StatusOK {
		t.Fatalf("early report = %d, want 409 (or 200 if already done)", code)
	}

	// Poll status until done.
	var state JobState
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, srv, "/v1/analyses/"+sub.ID, &state); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		if state.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", state.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if state.Status != StatusDone {
		t.Fatalf("job finished %s (%s)", state.Status, state.Error)
	}
	if state.Labels["origin"] != "httptest" {
		t.Errorf("labels = %v", state.Labels)
	}
	if state.Trace == nil || len(state.Trace.Stages) == 0 {
		t.Error("done status carries no stage trace")
	}
	var phases []string
	for _, ev := range state.Events {
		if ev.Stage == "" {
			phases = append(phases, ev.Phase)
		}
	}
	if want := []string{"queued", "running", "done"}; strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Errorf("lifecycle = %v, want %v", phases, want)
	}

	// Fetch the report and spot-check the analysis outcome.
	var report struct {
		Sweep *struct {
			BestK int `json:"best_k"`
		}
		Ranked []any
	}
	if code := getJSON(t, srv, "/v1/analyses/"+sub.ID+"/report", &report); code != http.StatusOK {
		t.Fatalf("report = %d", code)
	}
	if report.Sweep == nil || report.Sweep.BestK < 2 {
		t.Errorf("report sweep missing or degenerate: %+v", report.Sweep)
	}
	if len(report.Ranked) == 0 {
		t.Error("report has no ranked knowledge items")
	}

	// Submit two more (the first may run; the second queues), then
	// cancel the queued one via DELETE.
	ids := make([]string, 2)
	for i := range ids {
		resp, body := postJSON(t, srv, "/v1/analyses", SubmitRequest{Synthetic: &synthCfg})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, resp.StatusCode, body)
		}
		var s SubmitResponse
		if err := json.Unmarshal(body, &s); err != nil {
			t.Fatal(err)
		}
		ids[i] = s.ID
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/analyses/"+ids[1], nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel = %d", dresp.StatusCode)
	}
	for {
		if code := getJSON(t, srv, "/v1/analyses/"+ids[1], &state); code != http.StatusOK {
			t.Fatalf("status after cancel = %d", code)
		}
		if state.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled job stuck in %s", state.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if state.Status != StatusCancelled && state.Status != StatusDone {
		t.Fatalf("cancelled job ended %s", state.Status)
	}

	// Unknown id → 404.
	if code := getJSON(t, srv, "/v1/analyses/job-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
}

// TestDaemonQueueFull429: a saturated service answers POST with 429.
func TestDaemonQueueFull429(t *testing.T) {
	svc, started, release, _ := blockingService(t, 1, 1)
	defer close(release)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	synthCfg := synth.SmallConfig()
	submit := func() int {
		resp, _ := postJSON(t, srv, "/v1/analyses", SubmitRequest{Synthetic: &synthCfg})
		return resp.StatusCode
	}
	if code := submit(); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	<-started // worker busy
	if code := submit(); code != http.StatusAccepted {
		t.Fatalf("queued submit = %d", code)
	}
	if code := submit(); code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", code)
	}
}

// TestDaemonBadRequests: malformed and invalid submissions are 400s
// with a JSON error.
func TestDaemonBadRequests(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	cases := []struct {
		name string
		body any
	}{
		{"no source", SubmitRequest{}},
		{"bad override", SubmitRequest{Synthetic: ptrCfg(synth.SmallConfig()), Config: &core.Config{MinConfidence: 5}}},
		// Grids the run would fail on after its first stages.
		{"sweep K below 2", SubmitRequest{Synthetic: ptrCfg(synth.SmallConfig()), Config: &core.Config{Sweep: optimize.SweepConfig{Ks: []int{1}}}}},
		{"partial K below 1", SubmitRequest{Synthetic: ptrCfg(synth.SmallConfig()), Config: &core.Config{Partial: partial.Config{Ks: []int{0}}}}},
		{"partial fractions without full data", SubmitRequest{Synthetic: ptrCfg(synth.SmallConfig()), Config: &core.Config{Partial: partial.Config{Fractions: []float64{0.5}}}}},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, srv, "/v1/analyses", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: code = %d, body %s", tc.name, resp.StatusCode, body)
		}
		var e struct{ Error string }
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: not a JSON error body: %s", tc.name, body)
		}
	}

	// Non-JSON body.
	resp, err := http.Post(srv.URL+"/v1/analyses", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated JSON = %d, want 400", resp.StatusCode)
	}
}

func ptr[T any](v T) *T { return &v }

func ptrCfg(c synth.Config) *synth.Config { return &c }

// TestDaemonInlineDecodedLog: a log decoded from a request body runs
// to completion on the concurrent DAG, whose root stages read its
// encoding at once (a -race check; TestSubmitSharedUnencodedLog covers
// concurrent Submits of one log pointer).
func TestDaemonInlineDecodedLog(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	// Round-trip a generated log through JSON, exactly as a client
	// submission arrives.
	raw, err := json.Marshal(testLog(t, 5))
	if err != nil {
		t.Fatal(err)
	}
	var decoded json.RawMessage = raw
	resp, body := postJSON(t, srv, "/v1/analyses", struct {
		Log json.RawMessage `json:"log"`
	}{Log: decoded})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var sub SubmitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	var state JobState
	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, srv, "/v1/analyses/"+sub.ID, &state); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		if state.Status.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", state.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if state.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", state.Status, state.Error)
	}
}

// TestConcurrentSubmissionsKeepTheirLogs: concurrent submissions of
// different inline logs each analyse their own log, however the routes
// reuse request-body buffers between them. Each client submits twice,
// so later requests read into buffers earlier ones handed back; under
// -race a decoded log that still pointed into its body would also show
// as a race between a job reading it and the next request's read.
func TestConcurrentSubmissionsKeepTheirLogs(t *testing.T) {
	const clients, each = 8, 2
	svc, err := New(Config{Engine: fastConfig(1), Workers: 2, QueueDepth: clients * each})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	logOf := runLogs(svc, svc.defaultRun)
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	logs := make([]*dataset.Log, clients*each)
	for i := range logs {
		logs[i] = testLog(t, int64(i+1))
		logs[i].Name = fmt.Sprintf("ward-%d", i)
	}
	ids := make([]string, len(logs))
	errs := make([]error, len(logs))
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c * each; i < (c+1)*each; i++ {
				ids[i], errs[i] = submitLog(srv.URL, logs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	for i, id := range ids {
		job, ok := svc.Job(id)
		if !ok {
			t.Fatalf("job %s not found", id)
		}
		rep, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		want := logs[i]
		if got := logOf(job); got.Name != want.Name || !reflect.DeepEqual(got.Exams, want.Exams) ||
			!reflect.DeepEqual(got.Patients, want.Patients) || !reflect.DeepEqual(got.Records, want.Records) {
			t.Errorf("job %s holds another log than %s", id, want.Name)
		}
		if !reflect.DeepEqual(rep.Descriptor, stats.Characterize(want)) {
			t.Errorf("job %s describes\n %+v\nnot %s's\n %+v", id, rep.Descriptor, want.Name, stats.Characterize(want))
		}
	}
}

// submitLog posts log inline and returns the job id.
func submitLog(url string, log *dataset.Log) (string, error) {
	raw, err := json.Marshal(SubmitRequest{Log: log})
	if err != nil {
		return "", err
	}
	resp, err := http.Post(url+"/v1/analyses", "application/json", bytes.NewReader(raw))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	var sub SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sub)
	return sub.ID, err
}

// TestDaemonAlgorithmOverride: a per-job config override names the
// K-means kernel by its string form ("dense-lloyd", "auto", ...) — the
// cluster.Algorithm JSON text encoding — and an unknown name, including
// one of the deleted kernels, is a 400 at admission, not a mid-job
// failure. "auto" is the default kernel's alias and encodes back as
// "lloyd".
func TestDaemonAlgorithmOverride(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	submit := func(algorithm string) (*http.Response, SubmitResponse) {
		t.Helper()
		return submitOverride(t, srv, fmt.Sprintf(
			`{"Seed": 1, "Sweep": {"Ks": [2, 3], "CVFolds": 2, "Cluster": {"Algorithm": %q}}}`, algorithm))
	}

	resp, sub := submit("dense-lloyd")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dense-lloyd override = %d, want 202", resp.StatusCode)
	}
	waitDone(t, srv, sub.ID)

	resp, sub = submit("auto")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("auto override = %d, want 202", resp.StatusCode)
	}
	job, ok := svc.Job(sub.ID)
	if !ok {
		t.Fatalf("auto job %s not found", sub.ID)
	}
	if got := mustJSON(t, job.engine.Config().Sweep.Cluster.Algorithm); got != `"lloyd"` {
		t.Errorf("auto override encodes back as %s, want \"lloyd\"", got)
	}

	for _, name := range []string{"nonsense", "elkan", "hamerly", "yinyang", "filtering"} {
		if resp, _ := submit(name); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("algorithm %q = %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestDaemonConfigHandOffs: per-job config keys naming Go-side
// hand-offs (the recall stage's sweep seed, a kernel's initial
// centroids) are not part of the wire format, so a job carrying them
// is admitted and finishes as if they were absent; a CVFolds of 1,
// which no k-fold CV can run, is a 400 at admission.
func TestDaemonConfigHandOffs(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	for _, tc := range []struct {
		name, config string
		want         int
	}{
		{"cv-folds-one", `{"Sweep": {"CVFolds": 1}}`, http.StatusBadRequest},
		{"seed-centroids", `{"Partial": {"Ks": [4]}, "Sweep": {"Ks": [3, 4], "CVFolds": 2, "SeedCentroids": [[1]]}}`, http.StatusAccepted},
		{"initial-centroids", `{"Partial": {"Ks": [4], "Cluster": {"InitialCentroids": [[1, 2]]}}, "Sweep": {"Ks": [3, 4], "CVFolds": 2}}`, http.StatusAccepted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, sub := submitOverride(t, srv, tc.config)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.want)
			}
			if tc.want == http.StatusAccepted {
				waitDone(t, srv, sub.ID)
			}
		})
	}
}

// TestDaemonIgnoresRemovedConfigKeys: an older client's per-job config
// carrying the since-removed scheduler and retry keys is still admitted
// and completes; the unknown keys are ignored.
func TestDaemonIgnoresRemovedConfigKeys(t *testing.T) {
	config, err := os.ReadFile("testdata/removed_config_keys.json")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	resp, sub := submitOverride(t, srv, string(config))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("override with removed keys = %d, want 202", resp.StatusCode)
	}
	waitDone(t, srv, sub.ID)
}

// TestDaemonRejectsUnknownVSM: a per-job config naming a weighting or
// normalization outside the VSM's constants is a 400 at admission, not
// an analysis that silently runs as raw counts.
func TestDaemonRejectsUnknownVSM(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	for _, config := range []string{`{"VSM":{"Weighting":7}}`, `{"VSM":{"Normalization":9}}`, `{"VSM":{"Weighting":-1}}`} {
		if resp, _ := submitOverride(t, srv, config); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("config %s = %d, want 400", config, resp.StatusCode)
		}
	}
	if st := svc.Stats(); st.Queued+st.Running != 0 {
		t.Errorf("refused configs left jobs behind: %+v", st)
	}
}

// submitOverride posts a small synthetic analysis whose per-job config
// override is the JSON object config.
func submitOverride(t *testing.T, srv *httptest.Server, config string) (*http.Response, SubmitResponse) {
	t.Helper()
	body := fmt.Sprintf(`{"synthetic": %s, "config": %s}`, mustJSON(t, synth.SmallConfig()), config)
	resp, err := http.Post(srv.URL+"/v1/analyses", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub SubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
	}
	return resp, sub
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestKnowledgeWithoutMetricTruncatesAtLimit: GET /v1/knowledge without
// ?metric= answers with exactly the bytes of the first ?limit= items
// (default 50) of the dataset's full read.
func TestKnowledgeWithoutMetricTruncatesAtLimit(t *testing.T) {
	kb, err := kdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	var items []knowledge.Item
	for i := 0; i < 60; i++ {
		kind := knowledge.KindPattern
		if i%3 == 0 {
			kind = knowledge.KindCluster
		}
		items = append(items, knowledge.Item{ID: fmt.Sprintf("k%02d", i), Kind: kind, Dataset: "ward-a",
			Metrics: map[string]float64{"support": float64(i % 7)}})
	}
	if err := kb.StoreKnowledgeItems(items); err != nil {
		t.Fatal(err)
	}
	all, err := kb.KnowledgeItems("ward-a", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query string
		n     int
	}{{"&limit=7", 7}, {"", 50}, {"&limit=0", 60}, {"&limit=100", 60}} {
		got := httptest.NewRecorder()
		serveKnowledge(got, httptest.NewRequest("GET", "/v1/knowledge?dataset=ward-a"+tc.query, nil), kb)
		want := httptest.NewRecorder()
		httpapi.WriteJSON(want, http.StatusOK, knowledgeResponse{Dataset: "ward-a", Count: tc.n, Items: all[:tc.n]})
		if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%q: status %d, body differs from the first %d items of the full read", tc.query, got.Code, tc.n)
		}
	}
}
