package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"adahealth/internal/core"
	"adahealth/internal/endgoal"
	"adahealth/internal/httpapi"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/repl"
	"adahealth/internal/service"
	"adahealth/internal/stream"
	"adahealth/internal/synth"
)

// TestJSONAnswersAreCompactLines pins the wire shape of every JSON
// answer the daemon gives — the job API, the live-dataset routes and
// the replication endpoints, error answers included: Content-Type
// application/json and exactly one compact JSON line ended by a
// newline. The finished report decodes to a value equal to the job's.
func TestJSONAnswersAreCompactLines(t *testing.T) {
	svc, err := service.New(service.Config{
		Engine: core.Config{
			KDBDir:  t.TempDir(),
			Seed:    1,
			Partial: partial.Config{Ks: []int{4}},
			Sweep:   optimize.SweepConfig{Ks: []int{3, 4, 5}, CVFolds: 4},
		},
		Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	mgr, err := stream.NewManager(stream.Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mgr.Close)
	leader, err := repl.NewLeaderHandler(svc.Engine().KDB().Store(), repl.LeaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(leader.Close)
	mux := http.NewServeMux()
	mux.Handle("/", stream.Handler(svc, mgr))
	mux.Handle("/v1/replication/", leader)

	synthetic, err := json.Marshal(synth.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	submit := `{"name":"wire","synthetic":` + string(synthetic) + `}`
	const (
		register = `{"log":{"exams":[{"code":"EX1"}],"patients":[{"id":"P1"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}]}}`
		visits   = `{"patients":[{"id":"P2"}],"records":[{"patient_id":"P2","exam_code":"EX1","date":"2015-01-03T00:00:00Z"}]}`
	)

	// serve sends one request and checks the answer's shape; it returns
	// the body without its newline.
	serve := func(method, path, body string, declared int64, want int) []byte {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if declared > 0 {
			req.ContentLength = declared
		}
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, req)
		got := w.Body.Bytes()
		if w.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, w.Code, want, got)
		}
		if ct := w.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", method, path, ct)
		}
		line, ok := bytes.CutSuffix(got, []byte("\n"))
		if !ok || bytes.IndexByte(line, '\n') >= 0 {
			t.Errorf("%s %s: not one line and a newline: %q", method, path, got)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, line); err != nil {
			t.Errorf("%s %s: not JSON: %v", method, path, err)
		} else if !bytes.Equal(compact.Bytes(), line) {
			t.Errorf("%s %s: not compact: %s", method, path, line)
		}
		return line
	}

	var sub service.SubmitResponse
	if err := json.Unmarshal(serve("POST", "/v1/analyses", submit, 0, http.StatusAccepted), &sub); err != nil {
		t.Fatal(err)
	}
	job, ok := svc.Job(sub.ID)
	if !ok {
		t.Fatalf("job %s not found", sub.ID)
	}
	want, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got core.Report
	if err := json.Unmarshal(serve("GET", "/v1/analyses/"+sub.ID+"/report", "", 0, http.StatusOK), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(carried(&got), carried(want)) {
		t.Errorf("the served report decodes to\n%+v\nnot the job's\n%+v", got, *want)
	}

	for _, c := range []struct {
		method, path, body string
		declared           int64 // Content-Length to claim, when > 0
		status             int
	}{
		{"POST", "/v1/analyses", "{", 0, http.StatusBadRequest},
		{"POST", "/v1/analyses", "{}", 0, http.StatusBadRequest},
		{"POST", "/v1/analyses", `{"synthetic":` + string(synthetic) + `,"config":{"VSM":{"Weighting":7}}}`, 0, http.StatusBadRequest},
		{"POST", "/v1/analyses", "{}", httpapi.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"GET", "/v1/analyses/" + sub.ID, "", 0, http.StatusOK},
		{"GET", "/v1/analyses/job-999999", "", 0, http.StatusNotFound},
		{"GET", "/v1/analyses/job-999999/report", "", 0, http.StatusNotFound},
		{"GET", "/v1/analyses/job-999999/trace.html", "", 0, http.StatusNotFound},
		{"GET", "/v1/analyses/job-999999/events", "", 0, http.StatusNotFound},
		{"DELETE", "/v1/analyses/" + sub.ID, "", 0, http.StatusAccepted},
		{"DELETE", "/v1/analyses/job-999999", "", 0, http.StatusNotFound},
		{"GET", "/v1/knowledge?dataset=wire&metric=support&limit=3", "", 0, http.StatusOK},
		{"GET", "/v1/knowledge?limit=x", "", 0, http.StatusBadRequest},
		{"GET", "/v1/datasets/wire/similar", "", 0, http.StatusOK},
		{"GET", "/v1/datasets/wire/similar?limit=-1", "", 0, http.StatusBadRequest},
		{"GET", "/v1/datasets/ghost/similar", "", 0, http.StatusNotFound},
		{"GET", "/healthz", "", 0, http.StatusOK},
		{"PUT", "/v1/datasets/ward", register, 0, http.StatusCreated},
		{"PUT", "/v1/datasets/ward", register, 0, http.StatusConflict},
		{"PUT", "/v1/datasets/other", "{}", 0, http.StatusBadRequest},
		{"PUT", "/v1/datasets/other", "{}", httpapi.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"POST", "/v1/datasets/ward/visits", visits, 0, http.StatusAccepted},
		{"POST", "/v1/datasets/ward/visits", "[", 0, http.StatusBadRequest},
		{"POST", "/v1/datasets/ghost/visits", visits, 0, http.StatusNotFound},
		{"GET", "/v1/datasets/ward", "", 0, http.StatusOK},
		{"GET", "/v1/datasets/ghost", "", 0, http.StatusNotFound},
		{"GET", "/v1/datasets/ghost/events", "", 0, http.StatusNotFound},
		{"GET", repl.StatusPath, "", 0, http.StatusOK},
		{"GET", repl.SnapshotPath, "", 0, http.StatusOK},
		{"GET", repl.WALPath + "?epoch=x", "", 0, http.StatusBadRequest},
	} {
		serve(c.method, c.path, c.body, c.declared, c.status)
	}
}

// carried is rep without what its JSON form does not carry: the stage
// clock readings' monotonic part and zone, the goals' feasibility
// checks and the sweep's fitted model.
func carried(rep *core.Report) core.Report {
	c := *rep
	c.Stages = slices.Clone(rep.Stages)
	for i := range c.Stages {
		c.Stages[i].Start = c.Stages[i].Start.UTC().Round(0)
		c.Stages[i].End = c.Stages[i].End.UTC().Round(0)
	}
	c.Recommendations = slices.Clone(rep.Recommendations)
	for i, r := range c.Recommendations {
		c.Recommendations[i].Goal = endgoal.Goal{ID: r.Goal.ID, Name: r.Goal.Name, Description: r.Goal.Description, Algorithm: r.Goal.Algorithm}
	}
	if rep.Sweep != nil {
		sweep := *rep.Sweep
		sweep.BestClustering = nil
		c.Sweep = &sweep
	}
	return c
}
