package docstore

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
)

// num is a field value as an equality lookup compares it (every
// number a float64).
func num(v any) any {
	k, _ := normalize(v)
	return k
}

// field is the scalar a stored document holds at path (nil for none).
func field(doc Doc, path ...string) any {
	v, _ := doc.Field(path...).Scalar()
	return v
}

func TestInsertGeneratesIDs(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("items")
	id1, err := c.Insert(Document{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := c.Insert(Document{"x": 2})
	if err != nil {
		t.Fatal(err)
	}
	if id1 == "" || id1 == id2 {
		t.Errorf("ids = %q, %q", id1, id2)
	}
	if c.Count() != 2 {
		t.Errorf("count = %d", c.Count())
	}
}

func TestInsertExplicitIDAndDuplicate(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("items")
	id, err := c.Insert(Document{"_id": "custom", "x": 1})
	if err != nil {
		t.Fatal(err)
	}
	if id != "custom" {
		t.Errorf("id = %q", id)
	}
	if _, err := c.Insert(Document{"_id": "custom"}); err == nil {
		t.Error("duplicate _id accepted")
	}
}

func TestFindReturnsCopy(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("items")
	c.Insert(Document{"nested": map[string]any{"a": 1.0}, "list": []any{1.0}})
	got := c.Find()
	if len(got) != 1 {
		t.Fatal("missing doc")
	}
	got[0]["nested"].(map[string]any)["a"] = 99.0
	got[0]["list"].([]any)[0] = 99.0
	again := c.Find()[0]
	if again["nested"].(map[string]any)["a"] == 99.0 {
		t.Error("Find aliases nested map state")
	}
	if again["list"].([]any)[0] == 99.0 {
		t.Error("Find aliases slice state")
	}
}

func TestInsertCopiesInput(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("items")
	doc := Document{"x": 1.0}
	id, _ := c.Insert(doc)
	doc["x"] = 42.0
	raw := []byte(`{"_id":"raw","x":1}`)
	c.Insert(raw)
	raw[len(raw)-2] = '7'
	for _, id := range []string{id, "raw"} {
		got, _ := c.Get(id)
		if field(got, "x") != 1.0 {
			t.Error("Insert aliases caller's document")
		}
	}
}

// TestUpdateDelete: an upsert of an existing _id replaces the document
// under that _id, and a logged delete removes it.
func TestUpdateDelete(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("items")
	id, _ := c.Insert(Document{"x": 1})
	if _, err := c.Upsert(Document{"_id": id, "x": 2}); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Get(id)
	if field(got, "x") != 2.0 {
		t.Errorf("after upsert x = %v", field(got, "x"))
	}
	if got.ID() != id || c.Count() != 1 {
		t.Errorf("upsert lost _id: %q, %d documents", got.ID(), c.Count())
	}
	if err := deleteDoc(c, id); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(id); ok {
		t.Error("deleted doc still present")
	}
}

func TestFindFilters(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("items")
	for i := 0; i < 10; i++ {
		c.Insert(Document{"n": i, "kind": fmt.Sprintf("k%d", i%2)})
	}
	if got := len(c.FindEq("kind", "k0")); got != 5 {
		t.Errorf("FindEq matched %d, want 5", got)
	}
	if got := len(c.Find()); got != 10 {
		t.Errorf("Find returned %d, want all 10", got)
	}
}

func TestFindInsertionOrder(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("items")
	for i := 0; i < 5; i++ {
		c.Insert(Document{"n": i})
	}
	docs := c.Find()
	for i, d := range docs {
		if num(d["n"]) != float64(i) {
			t.Fatalf("order broken at %d: %v", i, d["n"])
		}
	}
}

func TestIndexedFind(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("items")
	for i := 0; i < 100; i++ {
		c.Insert(Document{"dataset": fmt.Sprintf("d%d", i%4), "n": i})
	}
	c.CreateIndex("dataset")
	got := c.FindEq("dataset", "d2")
	if len(got) != 25 {
		t.Errorf("indexed FindEq matched %d, want 25", len(got))
	}
	// Insert after index creation must be visible.
	c.Insert(Document{"dataset": "d2", "n": 1000})
	if got := c.FindEq("dataset", "d2"); len(got) != 26 {
		t.Errorf("post-index insert invisible: %d, want 26", len(got))
	}
	// Delete must drop from index results.
	id := got[0]["_id"]
	_ = id
	first := c.FindEq("dataset", "d2")[0]
	if err := deleteDoc(c, first["_id"].(string)); err != nil {
		t.Fatal(err)
	}
	if got := c.FindEq("dataset", "d2"); len(got) != 25 {
		t.Errorf("post-delete index shows %d, want 25", len(got))
	}
	// Unindexed field falls back to scan.
	if got := c.FindEq("n", 5); len(got) != 1 {
		t.Errorf("fallback FindEq matched %d, want 1", len(got))
	}
}

// TestWalkEqIsFindEqWithoutCopies: on the dataset index and on the
// scan fallback, WalkEq visits the stored bytes of exactly the
// documents FindEq decodes, in the same insertion order, and it stops
// when fn returns false.
func TestWalkEqIsFindEqWithoutCopies(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("items")
	c.CreateIndex("dataset")
	for i := 0; i < 60; i++ {
		c.Insert(Document{"dataset": fmt.Sprintf("d%d", i%3), "n": i % 7})
	}
	for _, q := range []struct {
		field string
		value any
	}{{"dataset", "d1"}, {"n", 4}, {"n", 99}} {
		want := c.FindEq(q.field, q.value)
		var got []Document
		c.WalkEq(q.field, q.value, func(d Doc, _ int64) bool {
			var doc Document
			if err := json.Unmarshal(d.Raw, &doc); err != nil {
				t.Fatal(err)
			}
			got = append(got, doc)
			if stored, _ := c.Get(d.ID()); &stored.Raw[0] != &d.Raw[0] {
				t.Errorf("WalkEq(%s=%v) handed out a copy, not the stored bytes", q.field, q.value)
			}
			return true
		})
		if !reflect.DeepEqual(got, want) {
			t.Errorf("WalkEq(%s=%v) visited %d documents, FindEq returned %d (or the order differs)", q.field, q.value, len(got), len(want))
		}
	}
	visited := 0
	c.WalkEq("dataset", "d1", func(Doc, int64) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Errorf("WalkEq visited %d documents after fn returned false at the third, want 3", visited)
	}
}

func TestNumericNormalization(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("items")
	c.Insert(Document{"n": int(5)})
	if got := c.FindEq("n", 5.0); len(got) != 1 {
		t.Error("int 5 does not match float 5.0")
	}
	if got := c.FindEq("n", int64(5)); len(got) != 1 {
		t.Error("int 5 does not match int64 5")
	}
}

// TestNonScalarIndexedFieldMatchesNothing: a document whose indexed
// field holds an object, an array or null is stored, reloaded, upserted
// and deleted like any other, and matches no equality lookup. The
// K-DB layout (an index on dataset) runs over every document a
// reopened store loads, so such a value must not panic it.
func TestNonScalarIndexedFieldMatchesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("items")
	for _, d := range []Document{
		{"_id": "scalar", "dataset": "ward-a"},
		{"_id": "object", "dataset": map[string]any{"name": "ward-a"}},
		{"_id": "array", "dataset": []any{"ward-a"}},
		{"_id": "null", "dataset": nil},
	} {
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c = s.Collection("items")
	c.CreateIndex("dataset")
	if _, err := c.Insert(Document{"_id": "late", "dataset": map[string]any{"name": "ward-b"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upsert(Document{"_id": "object", "dataset": []any{"ward-a", "ward-b"}}); err != nil {
		t.Fatal(err)
	}
	if err := deleteDoc(c, "array"); err != nil {
		t.Fatal(err)
	}
	if got := c.FindEq("dataset", "ward-a"); len(got) != 1 || got[0]["_id"] != "scalar" {
		t.Errorf("FindEq(dataset=ward-a) = %v, want only the scalar document", got)
	}
	for _, v := range []any{map[string]any{"name": "ward-b"}, []any{"ward-a", "ward-b"}, nil} {
		if got := c.FindEq("dataset", v); len(got) != 0 {
			t.Errorf("FindEq(dataset=%v) = %v, want none", v, got)
		}
		if got := c.FindEq("unindexed", v); len(got) != 0 {
			t.Errorf("FindEq(unindexed=%v) = %v, want none", v, got)
		}
	}
	if n := c.Count(); n != 4 {
		t.Errorf("Count = %d, want 4", n)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c := s.Collection("knowledge")
	id, _ := c.Insert(Document{"title": "pattern", "support": 42})
	c.Insert(Document{"title": "cluster", "support": 7})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rc := re.Collection("knowledge")
	if rc.Count() != 2 {
		t.Fatalf("reloaded count = %d, want 2", rc.Count())
	}
	doc, ok := rc.Get(id)
	if !ok || field(doc, "title") != "pattern" || field(doc, "support") != 42.0 {
		t.Errorf("reloaded doc = %v, %v", doc, ok)
	}
	// Sequence must not collide with pre-existing IDs.
	nid, err := rc.Insert(Document{"title": "new"})
	if err != nil {
		t.Fatalf("insert after reload: %v", err)
	}
	if nid == id {
		t.Error("ID collision after reload")
	}
}

func TestPersistenceCorruptFile(t *testing.T) {
	dir := t.TempDir()
	if err := writeFile(dir+"/bad.json", "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

func TestCollectionNames(t *testing.T) {
	s, _ := Open("")
	s.Collection("b")
	s.Collection("a")
	names := s.CollectionNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("items")
	c.CreateIndex("worker")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id, err := c.Insert(Document{"worker": w, "i": i})
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, ok := c.Get(id); !ok {
					t.Errorf("own insert invisible")
					return
				}
				c.FindEq("worker", w)
			}
		}(w)
	}
	wg.Wait()
	if c.Count() != 400 {
		t.Errorf("count = %d, want 400", c.Count())
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestGeneratedIDIsLastMember: a generated _id is appended to
// the written bytes as their last member, which wins over any _id the
// document held, and the member offsets reads go through cover it.
func TestGeneratedIDIsLastMember(t *testing.T) {
	s, _ := Open("")
	c := s.Collection("items")
	for _, doc := range []string{`{}`, `{"x":1}`, ` { "x" : 1 } `, `{"_id":5,"x":1}`} {
		id, err := c.Insert([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := c.Get(id)
		var out [1]Raw
		got.Fields(out[:], "_id")
		if v, _ := out[0].Scalar(); v != id || got.ID() != id {
			t.Errorf("%s stored as %s: _id reads %s, want %q", doc, got.Raw, out[0], id)
		}
		var m map[string]any
		if err := json.Unmarshal(got.Raw, &m); err != nil || m["_id"] != id {
			t.Errorf("%s stored as %s, which decodes to %v (%v)", doc, got.Raw, m, err)
		}
	}
}
