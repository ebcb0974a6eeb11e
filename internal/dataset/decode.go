package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strconv"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The request decoder: a byte scanner that reads a log-shaped JSON
// value straight into Log rows, accepting and rejecting exactly what
// encoding/json's Decoder accepts and rejects for the same types and
// yielding the same values (FuzzDecodeLogMatchesStdlib holds it to
// that). It reads the first value and ignores any bytes after it, as
// the Decoder does. Decoding a whole log, it interns ids: every record
// naming a patient shares that patient's id string. Each array is
// counted before it is decoded, so its rows and, for exams and
// patients, the interner's id map are allocated once at their final
// size. It does not encode the log; whoever keeps it builds the
// Encoded from the rows.
//
// What it inherits rather than re-derives: dates go through
// (*time.Time).UnmarshalJSON, ages follow encoding/json's int rules,
// member names match field names as encoding/json folds them, and a
// repeated member decodes into what the earlier one left (slices reuse
// their elements, as reflect-based decoding does).

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// DecodeBatch reads the first JSON value in data — an object with the
// members exams, patients and records, and no name — into l's rows, as
// decoding into a struct with just those three fields would. Its ids
// are not interned: a batch only carries a few rows to append
// elsewhere.
func DecodeBatch(data []byte, l *Log) error {
	d := &decoder{data: data}
	if err := d.top(); err != nil {
		return err
	}
	return d.log(l, false)
}

// DecodeEnvelope reads the first JSON value in data as
// json.NewDecoder(bytes.NewReader(data)).Decode(v) would, where v
// points to a struct whose field named "log" is the *Log at log: that
// member goes through the log decoder, every other member through
// encoding/json.
func DecodeEnvelope(data []byte, v any, log **Log) error {
	d := &decoder{data: data, intern: true}
	if err := d.top(); err != nil {
		return err
	}
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '{' {
		return d.typeErr("object")
	}
	rest := []byte{'{'}
	err = d.object(func(key []byte) error {
		if !is(d.foldIfWide(key), "LOG") {
			start := d.memberStart
			if err := d.skip(); err != nil {
				return err
			}
			if len(rest) > 1 {
				rest = append(rest, ',')
			}
			rest = append(rest, d.data[start:d.off]...)
			return nil
		}
		c, err := d.next()
		if err != nil {
			return err
		}
		if c == 'n' {
			*log = nil
			return d.literal("null")
		}
		if c != '{' {
			return d.typeErr("object")
		}
		if *log == nil {
			*log = new(Log)
		}
		return d.log(*log, true)
	})
	if err != nil {
		return err
	}
	if len(rest) > 1 {
		if err := json.Unmarshal(append(rest, '}'), v); err != nil {
			return fmt.Errorf("dataset: decoding JSON: %w", err)
		}
	}
	return nil
}

type decoder struct {
	data        []byte
	off         int
	depth       int
	memberStart int    // offset of the current member's key
	buf, fbuf   []byte // unescaped-string and folded-key scratch

	// intern is set when ids are interned, in patients and exams.
	intern   bool
	patients interner
	exams    interner
}

// interner hands out one string per distinct id.
type interner struct {
	// of is made on first use: for the ids of the exams or patients
	// array, sized to its element count.
	of map[string]string
	// last is the id added last: a log lists a patient's records
	// together, so most record ids repeat the one before.
	last string
}

func (t *interner) add(s []byte) string {
	if t.last == string(s) {
		return t.last
	}
	str, ok := t.of[string(s)]
	if !ok {
		if t.of == nil {
			t.of = make(map[string]string)
		}
		str = string(s)
		t.of[str] = str
	}
	t.last = str
	return str
}

func (d *decoder) syntaxErr(msg string) error {
	return fmt.Errorf("dataset: decoding JSON at offset %d: %s", d.off, msg)
}

func (d *decoder) typeErr(want string) error {
	return fmt.Errorf("dataset: decoding JSON at offset %d: cannot decode %c... into %s", d.off, d.data[d.off], want)
}

var errTruncated = fmt.Errorf("dataset: decoding JSON: %w", io.ErrUnexpectedEOF)

// top skips leading whitespace and reports io.EOF when nothing follows.
func (d *decoder) top() error {
	d.ws()
	if d.off == len(d.data) {
		return io.EOF
	}
	return nil
}

func (d *decoder) ws() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// next skips whitespace and returns the byte that follows, unconsumed.
func (d *decoder) next() (byte, error) {
	d.ws()
	if d.off == len(d.data) {
		return 0, errTruncated
	}
	return d.data[d.off], nil
}

func (d *decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.off == len(d.data) {
			return errTruncated
		}
		if d.data[d.off] != word[i] {
			return d.syntaxErr("invalid character in literal " + word)
		}
		d.off++
	}
	return nil
}

// object consumes an object, calling fn with each unescaped key; fn
// must consume the member's value. The key may alias scratch space
// that decoding the value overwrites.
func (d *decoder) object(fn func(key []byte) error) error {
	d.off++
	if d.depth++; d.depth > maxDepth {
		return d.syntaxErr("exceeded max depth")
	}
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if c != '"' {
			return d.syntaxErr("looking for beginning of object key string")
		}
		d.memberStart = d.off
		key, err := d.str()
		if err != nil {
			return err
		}
		if c, err = d.next(); err != nil {
			return err
		}
		if c != ':' {
			return d.syntaxErr("after object key")
		}
		d.off++
		if err := fn(key); err != nil {
			return err
		}
		if c, err = d.next(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.off++
			if c, err = d.next(); err != nil {
				return err
			}
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntaxErr("after object key:value pair")
		}
	}
}

// array consumes an array, calling fn for element i; fn must consume
// the element.
func (d *decoder) array(fn func(i int) error) error {
	d.off++
	if d.depth++; d.depth > maxDepth {
		return d.syntaxErr("exceeded max depth")
	}
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == ']' {
		d.off++
		d.depth--
		return nil
	}
	for i := 0; ; i++ {
		if err := fn(i); err != nil {
			return err
		}
		if c, err = d.next(); err != nil {
			return err
		}
		switch c {
		case ',':
			d.off++
		case ']':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntaxErr("after array element")
		}
	}
}

// skip validates and consumes any value.
func (d *decoder) skip() error {
	c, err := d.next()
	if err != nil {
		return err
	}
	switch {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.array(func(int) error { return d.skip() })
	case c == '"':
		_, _, err := d.scanString()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.syntaxErr("looking for beginning of value")
}

// number consumes a number and returns its literal.
func (d *decoder) number() ([]byte, error) {
	start, n := d.off, len(d.data)
	digits := func() error {
		if d.off == n {
			return errTruncated
		}
		if c := d.data[d.off]; c < '0' || c > '9' {
			return d.syntaxErr("in numeric literal")
		}
		for d.off < n && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
			d.off++
		}
		return nil
	}
	if d.data[d.off] == '-' {
		d.off++
	}
	if d.off < n && d.data[d.off] == '0' {
		d.off++
	} else if err := digits(); err != nil {
		return nil, err
	}
	if d.off < n && d.data[d.off] == '.' {
		d.off++
		if err := digits(); err != nil {
			return nil, err
		}
	}
	if d.off < n && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		d.off++
		if d.off < n && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		if err := digits(); err != nil {
			return nil, err
		}
	}
	return d.data[start:d.off], nil
}

// scanString consumes a string, validating it, and returns its body
// between the quotes and whether unquoting must rewrite it (escapes,
// or bytes that are not valid UTF-8).
func (d *decoder) scanString() (body []byte, rewrite bool, err error) {
	d.off++
	start, n := d.off, len(d.data)
	high := false
	for d.off < n {
		for d.off < n && plain[d.data[d.off]] {
			d.off++
		}
		if d.off == n {
			break
		}
		c := d.data[d.off]
		switch {
		case c == '"':
			body = d.data[start:d.off]
			d.off++
			return body, rewrite || high && !utf8.Valid(body), nil
		case c == '\\':
			rewrite = true
			d.off++
			if d.off == n {
				return nil, false, errTruncated
			}
			switch d.data[d.off] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.off++
			case 'u':
				d.off++
				for i := 0; i < 4; i++ {
					if d.off == n {
						return nil, false, errTruncated
					}
					if !isHex(d.data[d.off]) {
						return nil, false, d.syntaxErr("in \\u hexadecimal character escape")
					}
					d.off++
				}
			default:
				return nil, false, d.syntaxErr("in string escape code")
			}
		case c < ' ':
			return nil, false, d.syntaxErr("in string literal")
		default:
			high = high || c >= utf8.RuneSelf
			d.off++
		}
	}
	return nil, false, errTruncated
}

// plain marks the bytes a string holds verbatim: printable ASCII but
// the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// str consumes a string and returns it unquoted as encoding/json
// unquotes: escapes decoded, a lone surrogate escape or an invalid
// UTF-8 byte replaced by U+FFFD. The result may alias the input or
// the decoder's scratch.
func (d *decoder) str() ([]byte, error) {
	body, rewrite, err := d.scanString()
	if err != nil || !rewrite {
		return body, err
	}
	out := d.buf[:0]
	for r := 0; r < len(body); {
		c := body[r]
		switch {
		case c == '\\':
			switch e := body[r+1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				rr := hex4(body[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if r+6 <= len(body) && body[r] == '\\' && body[r+1] == 'u' {
						if dec := utf16.DecodeRune(rr, hex4(body[r+2:])); dec != unicode.ReplacementChar {
							out = utf8.AppendRune(out, dec)
							r += 6
							continue
						}
					}
					rr = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, rr)
				continue
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			r++
		default:
			rr, size := utf8.DecodeRune(body[r:])
			out = utf8.AppendRune(out, rr)
			r += size
		}
	}
	d.buf = out
	return out, nil
}

// fold returns key folded as encoding/json folds member names before
// matching them to fields: ASCII upper case, other runes to the
// smallest rune of their case-fold set.
func (d *decoder) fold(key []byte) []byte {
	out := d.fbuf[:0]
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	d.fbuf = out
	return out
}

// foldIfWide folds a key holding non-ASCII bytes and returns an ASCII
// key as it is: is compares ASCII case-insensitively, which is folding.
func (d *decoder) foldIfWide(key []byte) []byte {
	for _, c := range key {
		if c >= utf8.RuneSelf {
			return d.fold(key)
		}
	}
	return key
}

// is reports whether a key from foldIfWide names the field whose
// folded name is name.
func is(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i, c := range key {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

// stringInto decodes a string member into dst, interning it in t when
// t is non-nil. null leaves dst as it was.
func (d *decoder) stringInto(dst *string, t *interner) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	switch c {
	case '"':
		s, err := d.str()
		if err != nil {
			return err
		}
		if t != nil {
			*dst = t.add(s)
		} else {
			*dst = string(s)
		}
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.typeErr("string")
}

// intInto decodes an int member as encoding/json does: an integer
// literal within range, or null to leave dst as it was.
func (d *decoder) intInto(dst *int) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return d.typeErr("int")
	}
	lit, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil || int64(int(n)) != n {
		return fmt.Errorf("dataset: decoding JSON: number %s does not fit an int", lit)
	}
	*dst = int(n)
	return nil
}

// timeInto hands a member's raw value to (*time.Time).UnmarshalJSON,
// as encoding/json does for any value but null.
func (d *decoder) timeInto(dst *time.Time) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literal("null")
	}
	start := d.off
	if err := d.skip(); err != nil {
		return err
	}
	if err := dst.UnmarshalJSON(d.data[start:d.off]); err != nil {
		return fmt.Errorf("dataset: decoding JSON: %w", err)
	}
	return nil
}

// structInto decodes an object (or null, a no-op) member by member:
// member decodes the value of a member it knows by its folded name and
// reports whether it did; the others are skipped.
func (d *decoder) structInto(member func(folded []byte) (bool, error)) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		return d.literal("null")
	}
	if c != '{' {
		return d.typeErr("object")
	}
	return d.object(func(key []byte) error {
		if known, err := member(d.foldIfWide(key)); known || err != nil {
			return err
		}
		return d.skip()
	})
}

// sliceInto decodes an array member into *s as encoding/json does:
// element i decodes into what the slice's backing array already holds
// there, the length ends at the element count, an empty array gives an
// empty non-nil slice and null gives nil. The array is counted first
// and a backing array too short for it is replaced once by one of
// exactly that length; ids, when non-nil, is the interner of the ids
// the elements register, and a map it has not made yet is made for
// that many.
func sliceInto[T any](d *decoder, s *[]T, ids *interner, elem func(*T) error) error {
	c, err := d.next()
	if err != nil {
		return err
	}
	if c == 'n' {
		*s = nil
		return d.literal("null")
	}
	if c != '[' {
		return d.typeErr("array")
	}
	v, n := *s, 0
	want := d.count()
	if want > cap(v) {
		// The old backing array's elements past len stay visible to
		// the elements decoded into them, as they would be in place.
		w := make([]T, want)
		copy(w, v[:cap(v)])
		v = w[:len(v)]
	}
	if ids != nil && ids.of == nil {
		ids.of = make(map[string]string, want)
	}
	err = d.array(func(i int) error {
		if i >= cap(v) {
			// Only an element the count did not see gets here, and
			// such an element fails to decode: it is neither null nor
			// an object.
			v = slices.Grow(v, 1)
		}
		if i >= len(v) {
			v = v[:i+1]
		}
		n = i + 1
		return elem(&v[i])
	})
	if err != nil {
		return err
	}
	if n == 0 {
		v = []T{}
	}
	*s = v[:n]
	return nil
}

// count returns how many elements of the array at d.off are null or a
// closed bracketed value that opened with '{': on input the decoder
// accepts, exactly the elements an array of structs holds. It reads
// ahead without consuming or validating: strings are skipped to their
// first unescaped quote, and malformed or unterminated input yields
// the count so far. An element that is neither null nor an object is
// not counted, so a long array of junk costs no allocation, and a
// counted element takes at least three bytes of the body.
func (d *decoder) count() int {
	data := d.data[d.off+1:]
	n, depth := 0, 0
	// elem is set where a depth-0 element may start; obj while the
	// depth-0 element in hand opened there with '{'.
	elem, obj := true, false
	for i := 0; i < len(data); i++ {
		switch c := data[i]; c {
		case ' ', '\t', '\n', '\r':
			continue
		case '"':
			for {
				j := bytes.IndexByte(data[i+1:], '"')
				if j < 0 {
					return n
				}
				i += 1 + j
				k := i - 1
				for data[k] == '\\' {
					k--
				}
				if (i-k)%2 == 1 {
					break
				}
			}
		case '{', '[':
			if depth == 0 {
				obj = elem && c == '{'
			}
			depth++
		case '}', ']':
			if depth == 0 {
				return n
			}
			if depth--; depth == 0 && obj && c == '}' {
				n++
			}
		case ',':
			if depth == 0 {
				elem, obj = true, false
				continue
			}
		case 'n':
			if depth == 0 && elem && bytes.HasPrefix(data[i:], []byte("null")) {
				n++
				i += 3
			}
		}
		elem = false
	}
	return n
}

// log decodes a log-shaped object (or null) into l; named selects
// whether a "name" member is l's Name or an unknown member.
func (d *decoder) log(l *Log, named bool) error {
	var pats, exams *interner
	if d.intern {
		pats, exams = &d.patients, &d.exams
	}
	exam := func(x *ExamType) error {
		return d.structInto(func(f []byte) (bool, error) {
			switch {
			case is(f, "CODE"):
				return true, d.stringInto(&x.Code, exams)
			case is(f, "NAME"):
				return true, d.stringInto(&x.Name, nil)
			case is(f, "CATEGORY"):
				return true, d.stringInto(&x.Category, nil)
			}
			return false, nil
		})
	}
	patient := func(p *Patient) error {
		return d.structInto(func(f []byte) (bool, error) {
			switch {
			case is(f, "ID"):
				return true, d.stringInto(&p.ID, pats)
			case is(f, "AGE"):
				return true, d.intInto(&p.Age)
			case is(f, "PROFILE"):
				return true, d.stringInto(&p.Profile, nil)
			}
			return false, nil
		})
	}
	record := func(r *Record) error {
		return d.structInto(func(f []byte) (bool, error) {
			switch {
			case is(f, "PATIENT_ID"):
				return true, d.stringInto(&r.PatientID, pats)
			case is(f, "EXAM_CODE"):
				return true, d.stringInto(&r.ExamCode, exams)
			case is(f, "DATE"):
				return true, d.timeInto(&r.Date)
			}
			return false, nil
		})
	}
	return d.structInto(func(f []byte) (bool, error) {
		switch {
		case is(f, "NAME"):
			if !named {
				return false, nil
			}
			return true, d.stringInto(&l.Name, nil)
		case is(f, "EXAMS"):
			return true, sliceInto(d, &l.Exams, exams, exam)
		case is(f, "PATIENTS"):
			return true, sliceInto(d, &l.Patients, pats, patient)
		case is(f, "RECORDS"):
			return true, sliceInto(d, &l.Records, nil, record)
		}
		return false, nil
	})
}
