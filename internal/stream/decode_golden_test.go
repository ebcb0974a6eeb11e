package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"adahealth/internal/httpapi"
)

const goldenBase = `"exams":[{"code":"EX1","name":"Checkup","category":"routine"},{"code":"EX2","name":"Kidney","category":"renal"}],"patients":[{"id":"P1","age":50},{"id":"P2","age":61,"profile":"a"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"},{"patient_id":"P1","exam_code":"EX2","date":"2015-01-02T00:00:00Z"},{"patient_id":"P2","exam_code":"EX1","date":"2015-02-03T00:00:00Z"}]`

// goldenRegisterBodies pin what PUT /v1/datasets/{id} accepts and the
// registered log it reads from each body.
var goldenRegisterBodies = []struct {
	name   string
	body   string
	status int
	log    string // json.Marshal of the dataset's log; "" when rejected
}{
	{
		name:   "canonical",
		body:   `{"log":{"name":"ignored",` + goldenBase + `},"seed":3}`,
		status: http.StatusCreated,
		log:    `{"name":"canonical",` + goldenBase + `}`,
	},
	{
		name:   "records-first-mixed-case",
		body:   `{"Log":{"RECORDS":[{"Date":"2015-03-01T23:30:00-05:00","EXAM_CODE":"EX1","patient_ID":"P1"}],"Patients":[{"AGE":4,"ID":"P1","x":[]}],"exams":[{"Code":"EX1"}]},"zz":{}}`,
		status: http.StatusCreated,
		log:    `{"name":"records-first-mixed-case","exams":[{"code":"EX1","name":"","category":""}],"patients":[{"id":"P1","age":4}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-03-01T23:30:00-05:00"}]}`,
	},
	{name: "empty", body: ``, status: http.StatusBadRequest},
	{name: "top-level-null", body: `null`, status: http.StatusBadRequest},
	{name: "null-log", body: `{"log":null}`, status: http.StatusBadRequest},
	{
		name:   "bytes-after-the-first-value",
		body:   `{"log":{` + goldenBase + `}}]]`,
		status: http.StatusCreated,
		log:    `{"name":"bytes-after-the-first-value",` + goldenBase + `}`,
	},
	{name: "truncated", body: `{"log":{"exams":[{"code":"EX1"}`, status: http.StatusBadRequest},
	{name: "string-age", body: `{"log":{"patients":[{"id":"P1","age":"5"}]}}`, status: http.StatusBadRequest},
	{name: "dangling-patient", body: `{"log":{"exams":[{"code":"EX1"}],"patients":[{"id":"P1"}],"records":[{"patient_id":"P9","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}]}}`, status: http.StatusBadRequest},
	{name: "duplicate-patient", body: `{"log":{"exams":[{"code":"EX1"}],"patients":[{"id":"P1"},{"id":"P1"}]}}`, status: http.StatusBadRequest},
}

// goldenAppendBodies pin what POST /v1/datasets/{id}/visits accepts
// over a dataset registered with goldenBase, and the log it leaves.
var goldenAppendBodies = []struct {
	name   string
	body   string
	status int
	log    string
}{
	{
		name:   "canonical",
		body:   `{"patients":[{"id":"P3","age":30}],"records":[{"patient_id":"P3","exam_code":"EX2","date":"2015-04-05T10:00:00+01:00"}]}`,
		status: http.StatusAccepted,
		log:    `{"name":"append-0","exams":[{"code":"EX1","name":"Checkup","category":"routine"},{"code":"EX2","name":"Kidney","category":"renal"}],"patients":[{"id":"P1","age":50},{"id":"P2","age":61,"profile":"a"},{"id":"P3","age":30}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"},{"patient_id":"P1","exam_code":"EX2","date":"2015-01-02T00:00:00Z"},{"patient_id":"P2","exam_code":"EX1","date":"2015-02-03T00:00:00Z"},{"patient_id":"P3","exam_code":"EX2","date":"2015-04-05T10:00:00+01:00"}]}`,
	},
	{
		name:   "name-is-unknown-here",
		body:   `{"name":5,"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-04-05T00:00:00Z","x":null}],"extra":[1]}`,
		status: http.StatusAccepted,
		log:    `{"name":"append-1","exams":[{"code":"EX1","name":"Checkup","category":"routine"},{"code":"EX2","name":"Kidney","category":"renal"}],"patients":[{"id":"P1","age":50},{"id":"P2","age":61,"profile":"a"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"},{"patient_id":"P1","exam_code":"EX2","date":"2015-01-02T00:00:00Z"},{"patient_id":"P2","exam_code":"EX1","date":"2015-02-03T00:00:00Z"},{"patient_id":"P1","exam_code":"EX1","date":"2015-04-05T00:00:00Z"}]}`,
	},
	{
		name:   "mixed-case-keys",
		body:   `{"Records":[{"PATIENT_ID":"P2","Exam_Code":"EX2","DATE":"2015-06-07T08:09:10.5-03:00"}],"EXAMS":[{"CODE":"EX3","Category":"eye"}]}`,
		status: http.StatusAccepted,
		log:    `{"name":"append-2","exams":[{"code":"EX1","name":"Checkup","category":"routine"},{"code":"EX2","name":"Kidney","category":"renal"},{"code":"EX3","name":"","category":"eye"}],"patients":[{"id":"P1","age":50},{"id":"P2","age":61,"profile":"a"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"},{"patient_id":"P1","exam_code":"EX2","date":"2015-01-02T00:00:00Z"},{"patient_id":"P2","exam_code":"EX1","date":"2015-02-03T00:00:00Z"},{"patient_id":"P2","exam_code":"EX2","date":"2015-06-07T08:09:10.5-03:00"}]}`,
	},
	{
		name:   "bytes-after-the-first-value",
		body:   `{"records":[{"patient_id":"P2","exam_code":"EX2","date":"2015-04-05T00:00:00Z"}]} {"records":`,
		status: http.StatusAccepted,
		log:    `{"name":"append-3","exams":[{"code":"EX1","name":"Checkup","category":"routine"},{"code":"EX2","name":"Kidney","category":"renal"}],"patients":[{"id":"P1","age":50},{"id":"P2","age":61,"profile":"a"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"},{"patient_id":"P1","exam_code":"EX2","date":"2015-01-02T00:00:00Z"},{"patient_id":"P2","exam_code":"EX1","date":"2015-02-03T00:00:00Z"},{"patient_id":"P2","exam_code":"EX2","date":"2015-04-05T00:00:00Z"}]}`,
	},
	{name: "top-level-null", body: `null`, status: http.StatusBadRequest},
	{name: "empty", body: ``, status: http.StatusBadRequest},
	{name: "truncated", body: `{"records":[{"patient_id":"P2"`, status: http.StatusBadRequest},
	{name: "dangling-exam", body: `{"records":[{"patient_id":"P2","exam_code":"EX9","date":"2015-04-05T00:00:00Z"}]}`, status: http.StatusBadRequest},
	{name: "numeric-code", body: `{"exams":[{"code":3}]}`, status: http.StatusBadRequest},
}

func sendGolden(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func datasetLogJSON(t *testing.T, mgr *Manager, name string) string {
	t.Helper()
	d, ok := mgr.Get(name)
	if !ok {
		t.Fatalf("dataset %q not registered", name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	buf, err := json.Marshal(d.live.Log())
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

// TestRegisterAppendDecodeGolden: the live-dataset routes answer every
// golden body with its pinned status, and an accepted body leaves
// exactly the pinned log.
func TestRegisterAppendDecodeGolden(t *testing.T) {
	svc := testService(t, fastConfig(1, ""))
	mgr, err := NewManager(Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(svc, mgr))
	defer srv.Close()

	for _, tc := range goldenRegisterBodies {
		t.Run("register/"+tc.name, func(t *testing.T) {
			code, body := sendGolden(t, http.MethodPut, srv.URL+"/v1/datasets/"+tc.name, tc.body)
			if code != tc.status {
				t.Fatalf("status %d (%s), want %d", code, body, tc.status)
			}
			if code != http.StatusCreated {
				return
			}
			if got := datasetLogJSON(t, mgr, tc.name); got != tc.log {
				t.Errorf("registered log\n got %s\nwant %s", got, tc.log)
			}
		})
	}
	for i, tc := range goldenAppendBodies {
		t.Run("append/"+tc.name, func(t *testing.T) {
			name := fmt.Sprintf("append-%d", i)
			if code, body := sendGolden(t, http.MethodPut, srv.URL+"/v1/datasets/"+name, `{"log":{`+goldenBase+`}}`); code != http.StatusCreated {
				t.Fatalf("register = %d: %s", code, body)
			}
			code, body := sendGolden(t, http.MethodPost, srv.URL+"/v1/datasets/"+name+"/visits", tc.body)
			if code != tc.status {
				t.Fatalf("status %d (%s), want %d", code, body, tc.status)
			}
			want := tc.log
			if code != http.StatusAccepted {
				want = `{"name":"` + name + `",` + goldenBase + `}`
			}
			if got := datasetLogJSON(t, mgr, name); got != want {
				t.Errorf("log after append\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestLiveRoutesBodyLimit: both live-dataset routes answer a body over
// httpapi.MaxBodyBytes with a 413.
func TestLiveRoutesBodyLimit(t *testing.T) {
	svc := testService(t, fastConfig(1, ""))
	mgr, err := NewManager(Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	h := Handler(svc, mgr)
	if _, err := mgr.Register("big", nil, []Patient{{ID: "P1"}}, nil); err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"PUT /v1/datasets/other", "POST /v1/datasets/big/visits"} {
		method, path, _ := strings.Cut(target, " ")
		req := httptest.NewRequest(method, path, bytes.NewReader([]byte(`{}`)))
		req.ContentLength = httpapi.MaxBodyBytes + 1
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", target, w.Code)
		}
	}
}
