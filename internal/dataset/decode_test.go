package dataset

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime"
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
	if werrB == nil {
		exactArrays(t, "DecodeBatch", &gotB, arrayMembers(data, false))
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
		exactArrays(t, "DecodeEnvelope", gotE.Log, arrayMembers(data, true))
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

// exactArrays fails unless each of l's arrays that its input named
// once (members, in the order exams, patients, records) has its
// capacity equal to its length: the decoder counts an array before it
// allocates it.
func exactArrays(t *testing.T, what string, l *Log, members [3]int) {
	t.Helper()
	for i, a := range [3][2]int{
		{len(l.Exams), cap(l.Exams)},
		{len(l.Patients), cap(l.Patients)},
		{len(l.Records), cap(l.Records)},
	} {
		if members[i] == 1 && a[0] != a[1] {
			t.Fatalf("%s: %s has len %d, cap %d", what, logArrays[i], a[0], a[1])
		}
	}
}

var logArrays = [3]string{"exams", "patients", "records"}

// arrayMembers counts the exams, patients and records members, matched
// by name as encoding/json matches them, of the objects decoded as
// logs: data's top-level object, or for an envelope its log members'.
// data must start with a value encoding/json accepts.
func arrayMembers(data []byte, envelope bool) (n [3]int) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var value func(isLog, top bool)
	value = func(isLog, top bool) {
		open, _ := dec.Token()
		if open != json.Delim('{') && open != json.Delim('[') {
			return
		}
		for dec.More() {
			if open == json.Delim('[') {
				value(false, false)
				continue
			}
			key, _ := dec.Token()
			name, _ := key.(string)
			for i, a := range logArrays {
				if isLog && strings.EqualFold(name, a) {
					n[i]++
				}
			}
			value(top && envelope && strings.EqualFold(name, "log"), false)
		}
		dec.Token()
	}
	value(!envelope, true)
	return n
}

// TestCountIgnoresJunk: arrays whose elements are not objects or null,
// or not separated, are counted short, so a long one fails to decode
// before it costs a large allocation.
func TestCountIgnoresJunk(t *testing.T) {
	for _, junk := range []string{"1,", "n,", "{],", "{}", "[],"} {
		body := []byte(`{"log":{"records":[` + strings.Repeat(junk, 100000) + `{}]}}`)
		var req envelope
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := DecodeEnvelope(body, &req, &req.Log)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%q×100000: decoded", junk)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Errorf("%q×100000: allocated %d bytes", junk, got)
		}
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
		`{"records":[{"patient_id":"a\""}]}`, `{"records":[{"patient_id":"x\"]"},{},{}]}`,
		`{"records":[{"patient_id":"a\\"},{"exam_code":"b\\\\"},{}]}`,
		`{"patients":[{"id":"]}[{,null"},{"profile":"}"},{}],"exams":[{"name":"[["},{},{}]}`,
		`{"records":[{"x":[[1,[{}]],[]],"patient_id":"p"},null,{"y":{"z":[{"w":null}]}}]}`,
		`{"records":[ ],"patients":[ null , { } ],"exams":[` + "\n\t" + `]}`,
		`{"records":[{}`, `{"records":[{},`, `{"records":[{"patient_id":"a`, `{"records":[{"x":[`,
		`{"records":[null`, `{"log":{"patients":[{},{}`, `{"records":[nul]}`, `{"records":[{}{}]}`,
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
