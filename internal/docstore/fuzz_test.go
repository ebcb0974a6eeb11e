package docstore

import (
	"bytes"
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
