package kdb

import (
	"encoding/json"

	"adahealth/internal/docstore"
)

// fromDoc decodes a Document as the store would decode it once
// written: the fuzz reference's test of which documents decode.
func fromDoc(d docstore.Document, out any) error {
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, out)
}

// rawMetrics is a Document's metrics object (nil when absent or not an
// object).
func rawMetrics(d docstore.Document) map[string]any {
	m, _ := d["metrics"].(map[string]any)
	return m
}
