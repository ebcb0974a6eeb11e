package docstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWALReplay writes any bytes as a store's wal.log and opens the
// store. Open must never panic. When it succeeds, the log on disk must
// be the input cut at a frame boundary (the committed prefix, every
// frame whole), and reopening it must give the same documents and the
// same WAL size: recovery is idempotent. Each open also applies the
// K-DB's layout (every collection indexed by dataset) and
// runs one indexed FindEq, which must return exactly the documents
// whose dataset is that string. The store is released without Close,
// as a killed process leaves it, because Close compacts.
//
// Seeds live in testdata/fuzz/FuzzWALReplay: frames a real store
// wrote, their truncations and bit flips, and CRC-valid frames whose
// dataset is an object or an array.
func FuzzWALReplay(f *testing.F) {
	// One directory serves every input: an input only ever leaves
	// wal.log behind, which the next one overwrites.
	dir := f.TempDir()
	path := filepath.Join(dir, "wal.log")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func() (state string, size int64, ok bool) {
			s, err := OpenOptions(Options{Dir: dir, NoSync: true})
			if err != nil {
				return "", 0, false
			}
			for _, name := range s.CollectionNames() {
				c := s.Collection(name)
				c.CreateIndex("dataset")
				var want []Document
				for _, d := range c.Find() {
					if d["dataset"] == "ward-a" {
						want = append(want, d)
					}
				}
				if got := c.FindEq("dataset", "ward-a"); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: FindEq(dataset=ward-a) = %v, want %v", name, got, want)
				}
			}
			state, size = dump(t, s), s.WALSize()
			if err := s.wal.close(); err != nil {
				t.Fatal(err)
			}
			return state, size, true
		}
		state, size, ok := open()
		if !ok {
			return // a CRC-valid record the store cannot apply
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(raw)) != size || size > int64(len(data)) || !bytes.Equal(raw, data[:size]) {
			t.Fatalf("WAL after open is %d bytes (WALSize %d), want a prefix of the %d input bytes", len(raw), size, len(data))
		}
		if ends := frameEnds(t, path); size > 0 && (len(ends) == 0 || ends[len(ends)-1] != size) {
			t.Fatalf("WAL of %d bytes does not end at a frame boundary (frame ends %v)", size, ends)
		}

		state2, size2, ok := open()
		if !ok {
			t.Fatal("the store opened once and then refused to reopen its own recovered WAL")
		}
		if state2 != state || size2 != size {
			t.Fatalf("reopen gave %d WAL bytes and documents\n%s\nwant %d and\n%s", size2, state2, size, state)
		}
	})
}

// FuzzFieldScanMatchesDecode feeds any bytes in as a document. The
// scanner must accept or reject them exactly as json.Unmarshal into a
// map[string]any does — a JSON null decodes to a nil map, which is no
// document — and on a document it accepts, the value it reads for
// _id and for every top-level name (through the member offsets it
// records) and at every nested path (walking the bytes) must be the
// decoded map's value there, as an equality lookup normalizes it.
//
// Seeds live in testdata/fuzz/FuzzFieldScanMatchesDecode: escaped and
// repeated keys, non-object documents, nesting at and past
// encoding/json's depth limit, numbers out of float64's range and
// invalid UTF-8.
func FuzzFieldScanMatchesDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var m map[string]any
		want := json.Unmarshal(data, &m) == nil && m != nil
		names := []string{"_id", "dataset"}
		for k := range m {
			names = append(names, k)
		}
		_, err := encode(data)
		if ok := err == nil; ok != want {
			t.Fatalf("store accepts %q: %v, encoding/json: %v", data, ok, want)
		}
		if err != nil {
			return
		}
		vals := make([]Raw, len(names))
		_, e := newCollection(nil, "fuzz").parse(Raw(data))
		e.Fields(vals, names...)
		for i, name := range names {
			checkRead(t, name, vals[i], m, name)
		}
		var walk func(path []string, obj map[string]any)
		walk = func(path []string, obj map[string]any) {
			for k, v := range obj {
				p := append(path[:len(path):len(path)], k)
				raw := Raw(data).Field(p...)
				checkRead(t, p, raw, obj, k)
				if sub, ok := v.(map[string]any); ok && len(p) < 4 {
					walk(p, sub)
				} else if raw.Field(k) != nil {
					t.Fatalf("read %q through a %T", append(p, k), v)
				}
			}
		}
		walk(nil, m)
	})
}

// checkRead fails t unless raw, read at path, is present exactly when
// obj holds name, with the scalar key normalize gives obj[name].
func checkRead(t *testing.T, path any, raw Raw, obj map[string]any, name string) {
	t.Helper()
	v, present := obj[name]
	got, gotOK := raw.Scalar()
	want, wantOK := normalize(v)
	if (raw != nil) != present || gotOK != wantOK || got != want {
		t.Fatalf("read %q = %q (%v, %v), decoded %v (%v, %v)", path, raw, got, gotOK, v, want, wantOK)
	}
}
