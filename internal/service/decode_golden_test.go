package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"adahealth/internal/core"
	"adahealth/internal/httpapi"
)

// goldenSubmitBodies are request bodies for POST /v1/analyses with
// the status each must get and, when accepted, the decoded log as
// json.Marshal renders it. They pin what the routes accept and how
// they read it: member order, unknown members, key case, string
// escapes, null members, date offsets, truncation and trailing bytes.
var goldenSubmitBodies = []struct {
	name   string
	body   string
	status int
	log    string // json.Marshal of the decoded log; "" when rejected
}{
	{
		name:   "canonical",
		body:   `{"name":"g","log":{"name":"x","exams":[{"code":"EX1","name":"Checkup","category":"routine"},{"code":"EX2","name":"Kidney","category":"renal"}],"patients":[{"id":"P1","age":50},{"id":"P2","age":61,"profile":"a"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"},{"patient_id":"P1","exam_code":"EX2","date":"2015-01-02T00:00:00Z"},{"patient_id":"P2","exam_code":"EX1","date":"2015-02-03T00:00:00Z"}]}}`,
		status: http.StatusAccepted,
		log:    `{"name":"g","exams":[{"code":"EX1","name":"Checkup","category":"routine"},{"code":"EX2","name":"Kidney","category":"renal"}],"patients":[{"id":"P1","age":50},{"id":"P2","age":61,"profile":"a"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"},{"patient_id":"P1","exam_code":"EX2","date":"2015-01-02T00:00:00Z"},{"patient_id":"P2","exam_code":"EX1","date":"2015-02-03T00:00:00Z"}]}`,
	},
	{
		name:   "records-before-patients",
		body:   `{"log":{"records":[{"date":"2015-01-02T00:00:00Z","exam_code":"EX1","patient_id":"P2"}],"patients":[{"age":3,"id":"P2"}],"exams":[{"category":"c","code":"EX1"}],"name":"late"},"seed":4}`,
		status: http.StatusAccepted,
		log:    `{"name":"late","exams":[{"code":"EX1","name":"","category":"c"}],"patients":[{"id":"P2","age":3}],"records":[{"patient_id":"P2","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}]}`,
	},
	{
		name:   "unknown-members",
		body:   `{"zz":[1,{"a":null}],"log":{"extra":{"k":[true,false,null,-0.5e-3]},"exams":[{"code":"EX1","unit":"mg","name":"n"}],"patients":[{"id":"P1","age":7,"note":"x"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2016-05-06T00:00:00Z","site":{"ward":2}}]},"other":"é"}`,
		status: http.StatusAccepted,
		log:    `{"name":"","exams":[{"code":"EX1","name":"n","category":""}],"patients":[{"id":"P1","age":7}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2016-05-06T00:00:00Z"}]}`,
	},
	{
		name:   "mixed-case-keys",
		body:   `{"Name":"m","LOG":{"Exams":[{"CODE":"EX1","Name":"n","CaTeGoRy":"c"}],"patients":[{"Id":"P1","AGE":9,"Profile":"p"}],"RECORDS":[{"Patient_ID":"P1","EXAM_CODE":"EX1","Date":"2015-01-02T00:00:00Z"}]}}`,
		status: http.StatusAccepted,
		log:    `{"name":"m","exams":[{"code":"EX1","name":"n","category":"c"}],"patients":[{"id":"P1","age":9,"profile":"p"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}]}`,
	},
	{
		name:   "escaped-and-non-ascii-strings",
		body:   `{"log":{"name":"café \"ward\" \\ \/ \n\t","exams":[{"code":"EXÉ","name":"Grüße 😀 \ud800 x","category":"rénal"}],"patients":[{"id":"Pé","age":1,"profile":"ü` + "\xff" + `"}],"records":[{"patient_id":"Pé","exam_code":"EXÉ","date":"2015-01-02T00:00:00Z"}]}}`,
		status: http.StatusAccepted,
		log:    `{"name":"café \"ward\" \\ / \n\t","exams":[{"code":"EXÉ","name":"Grüße 😀 ` + "�" + ` x","category":"rénal"}],"patients":[{"id":"Pé","age":1,"profile":"ü` + "�" + `"}],"records":[{"patient_id":"Pé","exam_code":"EXÉ","date":"2015-01-02T00:00:00Z"}]}`,
	},
	{
		name:   "null-members",
		body:   `{"name":null,"seed":null,"labels":null,"config":null,"log":{"name":null,"exams":[{"code":"EX1","name":null,"category":null}],"patients":[{"id":"P1","age":null,"profile":null}],"records":[{"patient_id":"P1","exam_code":"EX1","date":null}]}}`,
		status: http.StatusAccepted,
		log:    `{"name":"","exams":[{"code":"EX1","name":"","category":""}],"patients":[{"id":"P1","age":0}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"0001-01-01T00:00:00Z"}]}`,
	},
	{
		name:   "null-then-records",
		body:   `{"log":{"exams":[{"code":"EX1"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}],"patients":[{"id":"P1"}],"records":null,"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}]}}`,
		status: http.StatusAccepted,
		log:    `{"name":"","exams":[{"code":"EX1","name":"","category":""}],"patients":[{"id":"P1","age":0}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}]}`,
	},
	{
		name:   "offset-dates-and-times",
		body:   `{"log":{"exams":[{"code":"EX1"}],"patients":[{"id":"P1","age":40}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-03-01T23:30:00-05:00"},{"patient_id":"P1","exam_code":"EX1","date":"2015-03-02T01:15:30.25+02:00"},{"patient_id":"P1","exam_code":"EX1","date":"2015-03-01T12:00:00Z"}]}}`,
		status: http.StatusAccepted,
		log:    `{"name":"","exams":[{"code":"EX1","name":"","category":""}],"patients":[{"id":"P1","age":40}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-03-01T23:30:00-05:00"},{"patient_id":"P1","exam_code":"EX1","date":"2015-03-02T01:15:30.25+02:00"},{"patient_id":"P1","exam_code":"EX1","date":"2015-03-01T12:00:00Z"}]}`,
	},
	{
		name:   "repeated-member-merges",
		body:   `{"log":{"patients":[{"id":"P1","age":5,"profile":"a"},{"id":"P2"}],"exams":[{"code":"EX1"}],"patients":[{"age":7}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}]}}`,
		status: http.StatusAccepted,
		log:    `{"name":"","exams":[{"code":"EX1","name":"","category":""}],"patients":[{"id":"P1","age":7,"profile":"a"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}]}`,
	},
	{
		name:   "bytes-after-the-first-value",
		body:   `{"log":{"exams":[{"code":"EX1"}],"patients":[{"id":"P1"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}]}} trailing {"log":`,
		status: http.StatusAccepted,
		log:    `{"name":"","exams":[{"code":"EX1","name":"","category":""}],"patients":[{"id":"P1","age":0}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}]}`,
	},
	{name: "truncated", body: `{"log":{"exams":[{"code":"EX1"}],"patients":[{"id":"P1"`, status: http.StatusBadRequest},
	{name: "empty", body: ``, status: http.StatusBadRequest},
	{name: "whitespace", body: " \n\t ", status: http.StatusBadRequest},
	{name: "top-level-null", body: `null`, status: http.StatusBadRequest},
	{name: "top-level-array", body: `[{"log":{}}]`, status: http.StatusBadRequest},
	{name: "null-log", body: `{"log":null}`, status: http.StatusBadRequest},
	{name: "string-age", body: `{"log":{"patients":[{"id":"P1","age":"5"}]}}`, status: http.StatusBadRequest},
	{name: "fractional-age", body: `{"log":{"patients":[{"id":"P1","age":5.0}]}}`, status: http.StatusBadRequest},
	{name: "numeric-id", body: `{"log":{"patients":[{"id":1}]}}`, status: http.StatusBadRequest},
	{name: "bad-date", body: `{"log":{"exams":[{"code":"EX1"}],"patients":[{"id":"P1"}],"records":[{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02"}]}}`, status: http.StatusBadRequest},
	{name: "bad-escape", body: `{"log":{"name":"\x"}}`, status: http.StatusBadRequest},
	{name: "leading-zero", body: `{"log":{"patients":[{"id":"P1","age":05}]}}`, status: http.StatusBadRequest},
	{name: "bad-non-log-member", body: `{"seed":"x","log":{"exams":[{"code":"EX1"}],"patients":[{"id":"P1"}]}}`, status: http.StatusBadRequest},
}

// TestSubmitDecodeGolden: POST /v1/analyses answers every golden body
// with its pinned status, and an accepted body's job carries exactly
// the pinned log.
func TestSubmitDecodeGolden(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	logOf := runLogs(svc, func(*Job) (*core.Report, error) { return &core.Report{}, nil })
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	for _, tc := range goldenSubmitBodies {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/v1/analyses", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d (%s), want %d", resp.StatusCode, body, tc.status)
			}
			if tc.status != http.StatusAccepted {
				return
			}
			var sub SubmitResponse
			if err := json.Unmarshal(body, &sub); err != nil {
				t.Fatal(err)
			}
			j, ok := svc.Job(sub.ID)
			if !ok {
				t.Fatalf("job %s not found", sub.ID)
			}
			if _, err := j.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(logOf(j))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.log {
				t.Errorf("decoded log\n got %s\nwant %s", got, tc.log)
			}
		})
	}
}

// TestSubmitRefusesUncleanLog: a log that repeats an id or names a
// patient or exam type it does not register is refused at admission
// with a 400, instead of failing mid-job or turning a repeated patient
// into two matrix rows.
func TestSubmitRefusesUncleanLog(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	const rec = `{"patient_id":"P1","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}`
	for name, body := range map[string]string{
		"unknown patient":   `{"log":{"exams":[{"code":"EX1"}],"patients":[{"id":"P1"}],"records":[` + rec + `,{"patient_id":"P2","exam_code":"EX1","date":"2015-01-02T00:00:00Z"}]}}`,
		"unknown exam":      `{"log":{"exams":[{"code":"EX1"}],"patients":[{"id":"P1"}],"records":[` + rec + `,{"patient_id":"P1","exam_code":"EX2","date":"2015-01-02T00:00:00Z"}]}}`,
		"duplicate patient": `{"log":{"exams":[{"code":"EX1"}],"patients":[{"id":"P1"},{"id":"P1","age":3}],"records":[` + rec + `]}}`,
		"duplicate exam":    `{"log":{"exams":[{"code":"EX1"},{"code":"EX1"}],"patients":[{"id":"P1"}],"records":[` + rec + `]}}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/analyses", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, msg)
		}
	}
	if st := svc.Stats(); st.Queued+st.Running != 0 {
		t.Errorf("refused logs left jobs behind: %+v", st)
	}
}

// TestBodyLimit: a body over httpapi.MaxBodyBytes gets a 413, whether its
// declared length says so up front or a chunked body runs past it.
func TestBodyLimit(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	h := NewHandler(svc)

	declared := httptest.NewRequest(http.MethodPost, "/v1/analyses", bytes.NewReader([]byte(`{}`)))
	declared.ContentLength = httpapi.MaxBodyBytes + 1
	w := httptest.NewRecorder()
	h.ServeHTTP(w, declared)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("declared oversize: status %d, want 413", w.Code)
	}

	long := io.MultiReader(bytes.NewReader([]byte(`{"name":"`)), io.LimitReader(zeros{}, httpapi.MaxBodyBytes))
	chunked := httptest.NewRequest(http.MethodPost, "/v1/analyses", long)
	chunked.ContentLength = -1
	w = httptest.NewRecorder()
	h.ServeHTTP(w, chunked)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("chunked oversize: status %d, want 413", w.Code)
	}
}

// zeros reads as an endless run of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}
