package docstore

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// Raw is JSON as the store holds it: a stored document — the object
// it was written as, _id included — or a value in one. Reads hand it
// out uncopied, so it is read-only to everyone.
type Raw []byte

// Doc is a stored document as reads hand it out: its bytes, and where
// each top-level member starts, which the store recorded when it stored
// the document — so reading a member costs a few comparisons, not a
// scan.
type Doc struct {
	Raw
	members []member
}

// member locates one top-level member: the offsets of its key's
// opening quote and of its value.
type member struct{ key, val int32 }

// ID returns the document's _id ("" when it is absent or not a
// string).
func (r Raw) ID() string {
	v, _ := r.Field("_id").Scalar()
	id, _ := v.(string)
	return id
}

// Field returns the raw JSON of the value at path — each step a member
// of the object before it, a repeated name reading its last value as
// encoding/json does — or nil when there is none. r must be valid
// JSON, as every stored document is.
func (r Raw) Field(path ...string) Raw {
	for _, name := range path {
		var found Raw
		members(r, func(k, ke, v, e int) bool {
			if keyIs(r[k:ke], name) {
				found = r[v:e]
			}
			return found == nil
		})
		if r = found; r == nil {
			return nil
		}
	}
	return r
}

// Fields sets out[i] to the raw JSON of the document's member
// names[i] — its last occurrence, the one encoding/json decodes — and
// leaves it alone when there is none. It reads the recorded member
// offsets from the last member back and stops once it has met every
// name, so the members a writer puts last cost the least to read.
func (d Doc) Fields(out []Raw, names ...string) {
	r, end := d.Raw, back(d.Raw, len(d.Raw))-1 // end: the ',' or '}' after the value
	var found uint64
	for i := len(d.members) - 1; i >= 0 && found != 1<<len(names)-1; i-- {
		m := d.members[i]
		key := r[m.key:back(r, back(r, int(m.val))-1)]
		for j, name := range names {
			if found&(1<<j) == 0 && keyIs(key, name) {
				out[j], found = r[m.val:back(r, end)], found|1<<j
			}
		}
		end = back(r, int(m.key)) - 1
	}
}

// members calls each on the members of the valid JSON object r, from
// the last one back — the quoted key r[k:ke], the value r[v:e] — until
// each returns false. It walks the bytes unchecked.
func members(r Raw, each func(k, ke, v, e int) bool) {
	e := back(r, len(r))
	if e == 0 || r[e-1] != '}' {
		return
	}
	for e = back(r, e-1); e > 0 && r[e-1] != '{'; e = back(r, e-1) {
		v := valueStart(r, e)
		ke := back(r, back(r, v)-1)
		k := stringStart(r, ke)
		if !each(k, ke, v, e) {
			return
		}
		if e = back(r, k); e == 0 || r[e-1] != ',' {
			return
		}
	}
}

// back returns the index just past the last non-whitespace byte
// before i, in valid JSON.
func back(b []byte, i int) int {
	for i > 0 && b[i-1] <= ' ' {
		i--
	}
	return i
}

// stringStart returns the index of the opening quote of the string
// whose closing quote is b[e-1]: the nearest quote before it that no
// odd run of backslashes escapes.
func stringStart(b []byte, e int) int {
	for i := e - 2; i >= 0; i-- {
		if b[i] != '"' {
			continue
		}
		n := 0
		for n < i && b[i-1-n] == '\\' {
			n++
		}
		if n%2 == 0 {
			return i
		}
	}
	return 0
}

// structural marks the bytes that open or close a string or container.
var structural = [256]bool{'"': true, '{': true, '}': true, '[': true, ']': true}

// valueStart returns the start of the value that ends at b[e-1].
func valueStart(b []byte, e int) int {
	switch b[e-1] {
	case '"':
		return stringStart(b, e)
	case '}', ']':
		depth := 0
		for i := e - 1; i >= 0; i-- {
			for i > 0 && !structural[b[i]] {
				i--
			}
			switch b[i] {
			case '"':
				i = stringStart(b, i+1)
			case '}', ']':
				depth++
			case '{', '[':
				if depth--; depth == 0 {
					return i
				}
			}
		}
		return 0
	}
	i := e - 1
	for i > 0 && b[i-1] > ' ' && b[i-1] != ':' && b[i-1] != ',' && b[i-1] != '[' {
		i--
	}
	return i
}

// Scalar returns the value r decodes to when it is a string, number or
// boolean — the key an equality index holds (see normalize) — and
// false for null, an object, an array or nil.
func (r Raw) Scalar() (any, bool) {
	if len(r) == 0 {
		return nil, false
	}
	switch r[0] {
	case '"':
		return unquote(r), true
	case 't', 'f':
		return r[0] == 't', true
	case 'n', '{', '[':
		return nil, false
	}
	f, err := strconv.ParseFloat(string(r), 64)
	return f, err == nil
}

// isDoc reports whether the valid JSON doc is a document: an object
// encoding/json decodes into a map[string]any, every number in it
// within float64's range.
func isDoc(doc Raw) bool {
	t := bytes.TrimSpace(doc)
	return len(t) > 0 && t[0] == '{' && inRange(doc)
}

// inRange reports whether every number in the valid JSON doc decodes
// to a float64, as encoding/json requires of a number it decodes into
// an interface. Outside strings only numbers hold digits, and only an
// exponent or more than 308 digits can leave the range, so only those
// numbers pay a ParseFloat.
func inRange(doc []byte) bool {
	for i := len(doc) - 1; i >= 0; i-- {
		switch c := doc[i]; {
		case c == '"':
			i = stringStart(doc, i+1)
		case '0' <= c && c <= '9':
			j, exp := i+1, false
			for ; i > 0 && (isDigit(doc[i-1]) || doc[i-1] == '.' || doc[i-1] == '-' || doc[i-1] == '+' || doc[i-1]|0x20 == 'e'); i-- {
				exp = exp || doc[i-1]|0x20 == 'e'
			}
			if exp || j-i > 308 {
				if _, err := strconv.ParseFloat(string(doc[i:j]), 64); err != nil {
					return false
				}
			}
		}
	}
	return true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// isPlain reports whether the quoted JSON string q decodes to its own
// bytes: plain ASCII, no escapes.
func isPlain(q []byte) bool {
	for _, c := range q[1 : len(q)-1] {
		if c == '\\' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// unquote decodes the quoted JSON string q.
func unquote(q []byte) string {
	if isPlain(q) {
		return string(q[1 : len(q)-1])
	}
	var s string
	json.Unmarshal(q, &s)
	return s
}

// keyIs reports whether the quoted key decodes to name.
func keyIs(key []byte, name string) bool {
	if isPlain(key) {
		return string(key[1:len(key)-1]) == name
	}
	return unquote(key) == name
}

// appendString appends s as a JSON string.
func appendString(dst []byte, s string) []byte {
	q, _ := json.Marshal(s)
	return append(dst, q...)
}

// withID returns doc with "_id":id appended as its last member, which
// wins over any _id before it, and that member. The append reuses
// doc's spare capacity, so doc must be the store's own.
func withID(doc Raw, id string) (Raw, member) {
	body := bytes.TrimRight(doc[:bytes.LastIndexByte(doc, '}')], " \t\r\n")
	if body[len(body)-1] != '{' {
		body = append(body, ',')
	}
	m := member{key: int32(len(body)), val: int32(len(body) + len(`"_id":`))}
	body = append(body, `"_id":`...)
	return append(appendString(body, id), '}'), m
}
