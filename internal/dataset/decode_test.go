package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// logRows is a log's exported fields.
type logRows struct {
	Name     string
	Exams    []ExamType
	Patients []Patient
	Records  []Record
}

func rows(l *Log) logRows {
	return logRows{l.Name, l.Exams, l.Patients, l.Records}
}

// batch and envelope are the shapes of the append and submit bodies.
type batch struct {
	Exams    []ExamType `json:"exams,omitempty"`
	Patients []Patient  `json:"patients,omitempty"`
	Records  []Record   `json:"records,omitempty"`
}

type envelope struct {
	Name   string            `json:"name,omitempty"`
	Log    *Log              `json:"log,omitempty"`
	Seed   *int64            `json:"seed,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
}

// FuzzDecodeLogMatchesStdlib: on any input, each of the decoder's
// two entry points (DecodeBatch, DecodeEnvelope) accepts exactly when json.NewDecoder(...).Decode
// into the same shape accepts (io.EOF exactly when it returns io.EOF),
// and both yield reflect.DeepEqual values. The decoder reads a private
// copy of the input, which is overwritten before the values are
// compared: a decoded request must keep no pointer into its body, whose
// buffer the HTTP routes hand back for reuse.
func FuzzDecodeLogMatchesStdlib(f *testing.F) {
	f.Add([]byte(`{"name":"x","exams":[{"code":"E1","category":"c"}],"patients":[{"id":"P1","age":3}],"records":[{"patient_id":"P1","exam_code":"E1","date":"2015-01-02T10:00:00+02:00"}]}`))
	f.Add([]byte(`{"log":{"records":[{"patient_id":"P9","exam_code":"E2","date":"2015-01-02T00:00:00Z"}],"patients":[{"id":"P1"},{"id":"P1"}]},"seed":3}`))
	f.Fuzz(differential)
}

// differential is FuzzDecodeLogMatchesStdlib's check of one input.
func differential(t *testing.T, data []byte) {
	body := bytes.Clone(data)

	var wantB batch
	var gotB Log
	werrB := json.NewDecoder(bytes.NewReader(data)).Decode(&wantB)
	gerrB := DecodeBatch(body, &gotB)

	var wantE, gotE envelope
	werrE := json.NewDecoder(bytes.NewReader(data)).Decode(&wantE)
	gerrE := DecodeEnvelope(body, &gotE, &gotE.Log)

	for i := range body {
		body[i] = '#'
	}

	agree(t, "DecodeBatch", werrB, gerrB)
	if werrB == nil && !reflect.DeepEqual(batch{gotB.Exams, gotB.Patients, gotB.Records}, wantB) {
		t.Fatalf("DecodeBatch\n got %#v\nwant %#v", rows(&gotB), wantB)
	}

	agree(t, "DecodeEnvelope", werrE, gerrE)
	if werrE != nil {
		return
	}
	if (gotE.Log == nil) != (wantE.Log == nil) {
		t.Fatalf("DecodeEnvelope log %v, want %v", gotE.Log, wantE.Log)
	}
	if gotE.Log != nil {
		if !reflect.DeepEqual(rows(gotE.Log), rows(wantE.Log)) {
			t.Fatalf("DecodeEnvelope log\n got %#v\nwant %#v", rows(gotE.Log), rows(wantE.Log))
		}
		gotE.Log, wantE.Log = nil, nil
	}
	if !reflect.DeepEqual(gotE, wantE) {
		t.Fatalf("DecodeEnvelope\n got %#v\nwant %#v", gotE, wantE)
	}
}

func agree(t *testing.T, what string, werr, gerr error) {
	t.Helper()
	if (werr == nil) != (gerr == nil) || (werr == io.EOF) != errors.Is(gerr, io.EOF) {
		t.Fatalf("%s: error %v, encoding/json's %v", what, gerr, werr)
	}
}

// TestDecodeCases runs the differential check over hand-written
// inputs each aimed at one rule, so they hold without fuzzing.
func TestDecodeCases(t *testing.T) {
	cases := []string{
		``, ` `, `null`, `nul`, `nullx`, `{}`, `[]`, `"x"`, `5`, `{} x`, `{`, `{"name":"a"`,
		`{"NAME":"a","Name":"b"}`, `{"ſxams":[]}`, `{"exams":[{"code":"E","code":"F"}]}`,
		`{"patients":[{"id":"P","age":-0}]}`, `{"patients":[{"age":1e2}]}`, `{"patients":[{"age":9223372036854775807}]}`,
		`{"patients":[{"age":9223372036854775808}]}`, `{"patients":[{"age":01}]}`, `{"patients":[{"age":-}]}`,
		`{"patients":[{"age":1.}]}`, `{"patients":[{"age":true}]}`, `{"patients":[{"id":null,"age":null}]}`,
		`{"patients":[null,{"id":"x"}]}`, `{"patients":[1]}`, `{"patients":{}}`, `{"patients":null}`,
		`{"patients":[{"id":"a","age":1},{"id":"b"}],"patients":[{"age":2}],"patients":[{},{}]}`,
		`{"patients":[{"id":"a"}],"patients":[]}`,
		`{"records":[{"date":"2015-01-02T00:00:00Z"},{"date":null},{"date":5},{"date":{}}]}`,
		`{"records":[{"date":"2015-01-02T00:00:00.5-07:30"}]}`, `{"records":[{"date":"2015-01-02"}]}`,
		`{"records":[{"date":"2015-01-02T00:00:00Z"}]}`,
		`{"name":"😀𐀀x\ud800A\\\/\b\f\n\r\t\""}`, "{\"name\":\"a\xffb\xed\xa0\x80\"}",
		"{\"name\":\"a\x01\"}", `{"name":"\x"}`, `{"name":"\u12"}`, `{"name":"\u12g4"}`,
		`{"x":[1,2,{"y":[true,false,null,"s",-1.5e+3]}],"name":"n"}`, `{"x":[1,]}`, `{"x":{"a":1,}}`, `{"x":{"a"}}`,
		`{"x":tru}`, `{"x":falsy}`, `{"name":"a",}`, `{,}`, `{"a" "b"}`, `{"a":1 "b":2}`,
		`{"log":{"name":"in"},"name":"out","seed":7,"labels":{"k":"v"}}`, `{"log":null,"log":{"name":"b"}}`,
		`{"log":{"patients":[{"id":"a"}]},"log":{"name":"merged"}}`, `{"log":5}`, `{"LOG":{"name":"x"},"seed":"bad"}`,
		`{"seed":1,"seed":null}`, strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	}
	for _, c := range cases {
		t.Run("", func(t *testing.T) {
			defer func() {
				if t.Failed() {
					t.Logf("input %q", c)
				}
			}()
			differential(t, []byte(c))
		})
	}
}
