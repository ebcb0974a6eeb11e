package kdb

import (
	"fmt"
	"reflect"
	"testing"

	"adahealth/internal/docstore"
	"adahealth/internal/knowledge"
)

// fuzzValue is the stored metric value a byte selects: a number from
// a small set (ties), absent, null, or a value no float64 decodes from.
func fuzzValue(b byte) (any, bool) {
	switch v := b % 8; {
	case v < 4:
		return float64(v) / 2, true
	case v == 4:
		return nil, false
	case v == 5:
		return nil, true
	case v == 6:
		return "high", true
	default:
		return true, true
	}
}

// fuzzDocs turns bytes into up to 24 knowledge documents, three bytes
// each: the first picks the collection, the dataset (a or b), an id
// from a pool of eight (so ids repeat, inside a collection too) or a
// numeric id; the next two pick the support and lift metrics.
func fuzzDocs(data []byte) (colls []string, docs []docstore.Document) {
	for i := 0; i+3 <= len(data) && len(docs) < 24; i += 3 {
		b := data[i]
		coll, kind := CollClusterKI, knowledge.KindCluster
		if b&1 != 0 {
			coll, kind = CollPatternKI, knowledge.KindPattern
		}
		var id any = fmt.Sprintf("i%d", (b>>2)%8)
		if b >= 0xf8 {
			id = 7.0
		}
		doc := docstore.Document{
			"id": id, "kind": string(kind), "dataset": []string{"a", "b"}[(b>>1)&1],
			"title": fmt.Sprintf("doc %d", len(docs)),
		}
		metrics := map[string]any{}
		for j, m := range []string{"support", "lift"} {
			if v, ok := fuzzValue(data[i+1+j]); ok {
				metrics[m] = v
			}
		}
		doc["metrics"] = metrics
		colls = append(colls, coll)
		docs = append(docs, doc)
	}
	return colls, docs
}

// FuzzTopKnowledgeMatchesReference: over documents with metric ties,
// missing, null and non-numeric metrics and repeated or numeric ids in
// both collections, TopKnowledge must agree with the decode-everything
// reference. Where every document in scope decodes, the two must
// return the same items. Where one does not, the reference fails;
// TopKnowledge may fail too, but only because a document it ranks —
// one carrying the metric — does not decode, and when it succeeds it
// must return the reference's answer over the documents that decode.
// The first byte picks the scope, the metric and n. Seeds live in
// testdata/fuzz/.
func FuzzTopKnowledgeMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		q := data[0]
		datasetName := []string{"", "a", "b"}[q%3]
		metric := []string{"support", "lift"}[(q/3)%2]
		n := int(q/6) % 5
		colls, docs := fuzzDocs(data[1:])

		full, _ := Open("")
		clean, _ := Open("") // only the documents that decode
		var undecodable []docstore.Document
		for i, doc := range docs {
			if _, err := full.Store().Collection(colls[i]).Insert(doc); err != nil {
				t.Fatal(err)
			}
			var it knowledge.Item
			if fromDoc(doc, &it) != nil {
				undecodable = append(undecodable, doc)
				continue
			}
			if _, err := clean.Store().Collection(colls[i]).Insert(doc); err != nil {
				t.Fatal(err)
			}
		}

		got, err := full.TopKnowledge(datasetName, metric, n)
		want, werr := referenceTopKnowledge(full, datasetName, metric, n)
		if werr != nil {
			if err != nil {
				for _, d := range undecodable {
					if _, ranked := rawMetrics(d)[metric]; ranked && (datasetName == "" || d["dataset"] == datasetName) {
						return
					}
				}
				t.Fatalf("TopKnowledge(%q, %q, %d) failed with no undecodable document ranked: %v", datasetName, metric, n, err)
			}
			if want, werr = referenceTopKnowledge(clean, datasetName, metric, n); werr != nil {
				t.Fatal(werr)
			}
		} else if err != nil {
			t.Fatalf("TopKnowledge(%q, %q, %d): %v; the reference succeeds", datasetName, metric, n, err)
		}
		if (len(got) != 0 || len(want) != 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("TopKnowledge(%q, %q, %d) = %v, reference %v", datasetName, metric, n, ids(got), ids(want))
		}
	})
}
