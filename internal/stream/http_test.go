package stream

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"adahealth/internal/dataset"
)

func doReq(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

func decodeStatus(t *testing.T, body []byte) DatasetStatus {
	t.Helper()
	var st DatasetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return st
}

// collectSSE follows the dataset event stream until every wanted type
// has been seen (the stream never closes on its own; the body is closed
// from a watchdog if the events never arrive).
func collectSSE(t *testing.T, url string, want ...string) []Event {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	watchdog := time.AfterFunc(15*time.Second, func() { resp.Body.Close() })
	defer watchdog.Stop()
	defer resp.Body.Close()

	need := map[string]bool{}
	for _, w := range want {
		need[w] = true
	}
	var events []Event
	scanner := bufio.NewScanner(resp.Body)
	for len(need) > 0 && scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, ev)
		delete(need, ev.Type)
	}
	if len(need) > 0 {
		t.Fatalf("event stream never delivered %v; got %d events", need, len(events))
	}
	return events
}

// TestHTTPLifecycle drives the whole streaming surface over real HTTP:
// register → append → model-updated SSE → drift-triggered resweep →
// report served by the job API → daemon restart resuming from the K-DB
// with no lost appends.
func TestHTTPLifecycle(t *testing.T) {
	dir := t.TempDir()
	svc := testService(t, fastConfig(17, dir))
	mgr, err := NewManager(Config{Service: svc, DriftThreshold: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(svc, mgr))
	defer srv.Close()

	full := genLog(t, 17, 60, 600)
	first, rest := splitLog(full, 1)

	// Register with the inline first half.
	initial := &dataset.Log{Name: full.Name, Exams: full.Exams, Patients: first.patients, Records: first.records}
	resp, body := doReq(t, http.MethodPut, srv.URL+"/v1/datasets/live-http", RegisterRequest{Log: initial})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register = %d: %s", resp.StatusCode, body)
	}
	if st := decodeStatus(t, body); st.Revision != 1 || st.NumPatients != len(first.patients) {
		t.Fatalf("registration status = %+v", st)
	}

	// Re-registering the name conflicts.
	if resp, _ := doReq(t, http.MethodPut, srv.URL+"/v1/datasets/live-http", RegisterRequest{}); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate register = %d, want 409", resp.StatusCode)
	}
	// Unknown datasets 404.
	if resp, _ := doReq(t, http.MethodGet, srv.URL+"/v1/datasets/ghost", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown dataset = %d, want 404", resp.StatusCode)
	}

	// Append the second half: 202, revision 2, and (with the
	// hair-trigger threshold) a scheduled resweep.
	resp, body = doReq(t, http.MethodPost, srv.URL+"/v1/datasets/live-http/visits", AppendRequest{
		Patients: rest[0].patients,
		Records:  rest[0].records,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("append = %d: %s", resp.StatusCode, body)
	}
	appended := decodeStatus(t, body)
	if appended.Revision != 2 {
		t.Fatalf("append status = %+v", appended)
	}
	if appended.ResweepJob == "" {
		t.Fatalf("append did not schedule a resweep: %+v", appended)
	}

	// Malformed appends are 400s, not accepted.
	if resp, _ := doReq(t, http.MethodPost, srv.URL+"/v1/datasets/live-http/visits", AppendRequest{
		Records: []Record{{PatientID: "ghost", ExamCode: "nope"}},
	}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid append = %d, want 400", resp.StatusCode)
	}

	// The SSE feed replays the full lifecycle, resweep completion
	// included.
	events := collectSSE(t, srv.URL+"/v1/datasets/live-http/events",
		EventRegistered, EventAppended, EventModelUpdated, EventResweepScheduled, EventResweepComplete)
	for _, ev := range events {
		if ev.Dataset != "live-http" {
			t.Fatalf("event for %q on live-http's stream", ev.Dataset)
		}
	}

	// Status converges to the completed analysis, whose report the job
	// API serves.
	var final DatasetStatus
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body = doReq(t, http.MethodGet, srv.URL+"/v1/datasets/live-http", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d: %s", resp.StatusCode, body)
		}
		final = decodeStatus(t, body)
		if !final.Resweeping && final.LastAnalysis != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resweep never completed: %+v", final)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resp, body := doReq(t, http.MethodGet, srv.URL+"/v1/analyses/"+final.LastAnalysis+"/report", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("resweep report = %d: %s", resp.StatusCode, body)
	}

	// Go 1.22 precedence: the job API's more specific /similar route
	// still wins over the streaming status route.
	if _, body := doReq(t, http.MethodGet, srv.URL+"/v1/datasets/live-http/similar", nil); strings.Contains(string(body), "stream:") {
		t.Fatalf("/similar was routed to the streaming API: %s", body)
	}

	// Restart: a new service + manager over the same K-DB directory
	// resumes the stream at the acknowledged revision and keeps
	// accepting appends.
	srv.Close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc2 := testService(t, fastConfig(17, dir))
	mgr2, err := NewManager(Config{Service: svc2, DriftThreshold: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(Handler(svc2, mgr2))
	defer srv2.Close()

	resp, body = doReq(t, http.MethodGet, srv2.URL+"/v1/datasets/live-http", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart status = %d: %s", resp.StatusCode, body)
	}
	resumed := decodeStatus(t, body)
	if resumed.Revision != final.Revision || resumed.NumRecords != final.NumRecords {
		t.Fatalf("restart lost appends: %+v, want revision %d with %d records",
			resumed, final.Revision, final.NumRecords)
	}
	if resumed.LastAnalysis != "" {
		t.Fatalf("restart kept the analysis pointer %q, a job ID of the previous process", resumed.LastAnalysis)
	}

	resp, body = doReq(t, http.MethodPost, srv2.URL+"/v1/datasets/live-http/visits", AppendRequest{
		Patients: []Patient{{ID: "POST-RESTART", Age: 50}},
		Records:  []Record{{PatientID: "POST-RESTART", ExamCode: first.exams[0].Code, Date: time.Now()}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-restart append = %d: %s", resp.StatusCode, body)
	}
	if st := decodeStatus(t, body); st.Revision != resumed.Revision+1 {
		t.Fatalf("post-restart append revision %d, want %d", st.Revision, resumed.Revision+1)
	}
}
