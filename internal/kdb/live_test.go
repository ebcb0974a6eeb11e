package kdb

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/stats"
)

// TestLiveStateRoundTrip: the control record upserts by dataset and
// survives a close/reopen cycle (WAL recovery of the new collection).
func TestLiveStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := LiveDatasetState{
		Dataset:      "ward-a",
		Revision:     3,
		Baseline:     &stats.Descriptor{DatasetName: "ward-a", NumPatients: 10},
		Drift:        0.04,
		LastAnalysis: "job-7",
	}
	if err := k.StoreLiveDataset(st); err != nil {
		t.Fatal(err)
	}
	st.Revision = 4
	st.Drift = 0.09
	if err := k.StoreLiveDataset(st); err != nil { // upsert, not duplicate
		t.Fatal(err)
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	all, err := re.LiveDatasets()
	if err != nil || len(all) != 1 {
		t.Fatalf("LiveDatasets after reopen = %d records, err %v; want 1", len(all), err)
	}
	if !reflect.DeepEqual(st, all[0]) {
		t.Errorf("reloaded state differs:\nwant %+v\ngot  %+v", st, all[0])
	}
}

// TestLiveBatchesOrderedReplay: batches come back in revision order
// regardless of interleaved inserts across datasets, and survive
// reopen.
func TestLiveBatchesOrderedReplay(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for rev := 1; rev <= 4; rev++ {
		for _, name := range []string{"ward-a", "ward-b"} {
			b := LiveBatch{
				Dataset:  name,
				Revision: rev,
				Records: []dataset.Record{{
					PatientID: "P1", ExamCode: "EX001", Date: day.AddDate(0, 0, rev),
				}},
			}
			if rev == 1 {
				b.Exams = []dataset.ExamType{{Code: "EX001"}}
				b.Patients = []dataset.Patient{{ID: "P1", Age: 30}}
			}
			if err := k.AppendLiveBatch(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	batches, err := re.LiveBatches("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 4 {
		t.Fatalf("replayed %d batches, want 4", len(batches))
	}
	for i, b := range batches {
		if b.Revision != i+1 {
			t.Errorf("batch %d has revision %d, want %d", i, b.Revision, i+1)
		}
		if b.Dataset != "ward-a" {
			t.Errorf("batch %d leaked from dataset %q", i, b.Dataset)
		}
	}
}

// foldBatch builds one single-revision batch: revision 1 registers the
// exam and patient namespaces, later revisions append disjoint records.
func foldBatch(ds string, rev int) LiveBatch {
	day := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	b := LiveBatch{
		Dataset:  ds,
		Revision: rev,
		Exams:    []dataset.ExamType{{Code: fmt.Sprintf("EX%03d", rev)}},
		Patients: []dataset.Patient{{ID: fmt.Sprintf("P%03d", rev), Age: 20 + rev}},
		Records: []dataset.Record{{
			PatientID: fmt.Sprintf("P%03d", rev),
			ExamCode:  fmt.Sprintf("EX%03d", rev),
			Date:      day.AddDate(0, 0, rev),
		}},
	}
	return b
}

// flattenBatches concatenates the replay stream — what the streaming
// recovery path would apply, in order.
func flattenBatches(batches []LiveBatch) ([]dataset.ExamType, []dataset.Patient, []dataset.Record) {
	var exams []dataset.ExamType
	var patients []dataset.Patient
	var records []dataset.Record
	for _, b := range batches {
		exams = append(exams, b.Exams...)
		patients = append(patients, b.Patients...)
		records = append(records, b.Records...)
	}
	return exams, patients, records
}

// TestLiveFoldAtFlush: once enough batches are reflected in the control
// record's revision, Flush folds them into one document; batches past
// the control revision stay individual; the folded stream replays
// identically (same concatenation) including through a store reopen.
func TestLiveFoldAtFlush(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k.foldThreshold = 4
	for rev := 1; rev <= 6; rev++ {
		if err := k.AppendLiveBatch(foldBatch("ward-a", rev)); err != nil {
			t.Fatal(err)
		}
	}
	// The control record reflects revision 5; revision 6 is the
	// un-acknowledged tail recovery must still see individually.
	if err := k.StoreLiveDataset(LiveDatasetState{Dataset: "ward-a", Revision: 5}); err != nil {
		t.Fatal(err)
	}
	before, err := k.LiveBatches("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	wantE, wantP, wantR := flattenBatches(before)

	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := k.Store().Collection(CollLiveAppends).Count(); n != 2 {
		t.Fatalf("live_appends holds %d docs after fold, want 2 (fold + tail)", n)
	}
	after, err := k.LiveBatches("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 2 {
		t.Fatalf("LiveBatches returned %d batches, want 2", len(after))
	}
	fold := after[0]
	if fold.FoldedFrom != 1 || fold.Revision != 5 {
		t.Errorf("fold covers [%d..%d], want [1..5]", fold.FoldedFrom, fold.Revision)
	}
	if after[1].Revision != 6 || after[1].FoldedFrom != 0 {
		t.Errorf("tail batch = rev %d fold %d, want plain rev 6", after[1].Revision, after[1].FoldedFrom)
	}
	gotE, gotP, gotR := flattenBatches(after)
	if !reflect.DeepEqual(gotE, wantE) || !reflect.DeepEqual(gotP, wantP) || !reflect.DeepEqual(gotR, wantR) {
		t.Error("folded replay stream differs from the unfolded one")
	}

	if err := k.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	replayed, err := re.LiveBatches("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	gotE, gotP, gotR = flattenBatches(replayed)
	if !reflect.DeepEqual(gotE, wantE) || !reflect.DeepEqual(gotP, wantP) || !reflect.DeepEqual(gotR, wantR) {
		t.Error("replay after reopen differs from the pre-fold stream")
	}
}

// TestLiveFoldCrashAtEveryFrame: the fold and the deletes of what it
// covers are one non-atomic batch, so a crash may keep any frame-prefix
// of it. The fold's frame is logged first; cutting the log after every
// frame must therefore replay the same stream as before the fold —
// never a revision lost to a delete whose fold did not survive.
func TestLiveFoldCrashAtEveryFrame(t *testing.T) {
	dir := t.TempDir()
	k, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	k.foldThreshold = 4
	for rev := 1; rev <= 6; rev++ {
		if err := k.AppendLiveBatch(foldBatch("ward-a", rev)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.StoreLiveDataset(LiveDatasetState{Dataset: "ward-a", Revision: 5}); err != nil {
		t.Fatal(err)
	}
	before, err := k.LiveBatches("ward-a")
	if err != nil {
		t.Fatal(err)
	}
	wantE, wantP, wantR := flattenBatches(before)
	if err := k.Flush(); err != nil { // folds [1..5]; the log is far below the compaction budget
		t.Fatal(err)
	}

	wal, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	// 6 appends + the control record, then the fold and 5 deletes.
	const preFold, foldFrames = 7, 6
	var ends []int
	for off := 0; off+8 <= len(wal); {
		off += 8 + int(binary.LittleEndian.Uint32(wal[off:]))
		ends = append(ends, off)
	}
	if len(ends) != preFold+foldFrames {
		t.Fatalf("WAL holds %d frames, want %d", len(ends), preFold+foldFrames)
	}
	for i := preFold - 1; i < len(ends); i++ {
		crashed := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashed, "wal.log"), wal[:ends[i]], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(crashed)
		if err != nil {
			t.Fatalf("reopening a log cut after frame %d: %v", i, err)
		}
		replayed, err := re.LiveBatches("ward-a")
		if err != nil {
			t.Fatal(err)
		}
		gotE, gotP, gotR := flattenBatches(replayed)
		if !reflect.DeepEqual(gotE, wantE) || !reflect.DeepEqual(gotP, wantP) || !reflect.DeepEqual(gotR, wantR) {
			t.Errorf("log cut after frame %d (%d of the fold's %d) replays a different stream", i, i-preFold+1, foldFrames)
		}
		re.Close()
	}
}

// TestLiveFoldExtends: a second flush folds the existing fold together
// with newly reflected batches into one longer fold.
func TestLiveFoldExtends(t *testing.T) {
	k, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	k.foldThreshold = 3
	for rev := 1; rev <= 3; rev++ {
		if err := k.AppendLiveBatch(foldBatch("w", rev)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.StoreLiveDataset(LiveDatasetState{Dataset: "w", Revision: 3}); err != nil {
		t.Fatal(err)
	}
	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	for rev := 4; rev <= 6; rev++ {
		if err := k.AppendLiveBatch(foldBatch("w", rev)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.StoreLiveDataset(LiveDatasetState{Dataset: "w", Revision: 6}); err != nil {
		t.Fatal(err)
	}
	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	batches, err := k.LiveBatches("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 1 || batches[0].FoldedFrom != 1 || batches[0].Revision != 6 {
		t.Fatalf("after second flush got %d batches (first covers [%d..%d]), want one fold [1..6]",
			len(batches), batches[0].FoldedFrom, batches[0].Revision)
	}
	if len(batches[0].Records) != 6 {
		t.Errorf("extended fold carries %d records, want 6", len(batches[0].Records))
	}
}

// TestLiveFoldCrashLeftoversSkipped: a crash between inserting the fold
// and deleting its constituents leaves both on disk; LiveBatches must
// replay each revision exactly once, and the next flush cleans up.
func TestLiveFoldCrashLeftoversSkipped(t *testing.T) {
	k, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	k.foldThreshold = 3
	for rev := 1; rev <= 4; rev++ {
		if err := k.AppendLiveBatch(foldBatch("w", rev)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate the crash leftover: a durable fold of [1..3] alongside
	// the originals it covers.
	fold := foldBatch("w", 1)
	f2, f3 := foldBatch("w", 2), foldBatch("w", 3)
	fold.Exams = append(fold.Exams, append(f2.Exams, f3.Exams...)...)
	fold.Patients = append(fold.Patients, append(f2.Patients, f3.Patients...)...)
	fold.Records = append(fold.Records, append(f2.Records, f3.Records...)...)
	fold.Revision, fold.FoldedFrom = 3, 1
	if err := k.AppendLiveBatch(fold); err != nil {
		t.Fatal(err)
	}

	batches, err := k.LiveBatches("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 2 {
		t.Fatalf("got %d batches, want 2 (fold + rev 4)", len(batches))
	}
	_, _, records := flattenBatches(batches)
	seen := map[string]bool{}
	for _, r := range records {
		if seen[r.ExamCode] {
			t.Fatalf("revision of %s replayed twice despite crash leftovers", r.ExamCode)
		}
		seen[r.ExamCode] = true
	}
	if len(records) != 4 {
		t.Errorf("replayed %d records, want 4", len(records))
	}

	// The next flush retires the leftovers (fold + originals merge).
	if err := k.StoreLiveDataset(LiveDatasetState{Dataset: "w", Revision: 4}); err != nil {
		t.Fatal(err)
	}
	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := k.Store().Collection(CollLiveAppends).Count(); n != 1 {
		t.Errorf("live_appends holds %d docs after cleanup flush, want 1", n)
	}
}

// TestLiveFoldDisabled: a non-positive threshold leaves the append
// history untouched.
func TestLiveFoldDisabled(t *testing.T) {
	k, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	k.foldThreshold = 0
	for rev := 1; rev <= 10; rev++ {
		if err := k.AppendLiveBatch(foldBatch("w", rev)); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.StoreLiveDataset(LiveDatasetState{Dataset: "w", Revision: 10}); err != nil {
		t.Fatal(err)
	}
	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	batches, err := k.LiveBatches("w")
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != 10 {
		t.Errorf("got %d batches with folding disabled, want 10", len(batches))
	}
}

// TestConcurrentFlushesFoldOnce: Flush serializes itself, so
// concurrent flushes over foldable live batches fold them exactly once.
// Unserialized, two flushes fold the same batches and the second's
// deletes fail with "delete of missing _id", leaving duplicate folds.
func TestConcurrentFlushesFoldOnce(t *testing.T) {
	const trials, flushers, batches = 20, 4, 40
	for trial := 0; trial < trials; trial++ {
		k, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		k.foldThreshold = 4
		for rev := 1; rev <= batches; rev++ {
			if err := k.AppendLiveBatch(foldBatch("w", rev)); err != nil {
				t.Fatal(err)
			}
		}
		if err := k.StoreLiveDataset(LiveDatasetState{Dataset: "w", Revision: batches}); err != nil {
			t.Fatal(err)
		}
		before, err := k.LiveBatches("w")
		if err != nil {
			t.Fatal(err)
		}
		wantE, wantP, wantR := flattenBatches(before)

		errs := make(chan error, flushers)
		start := make(chan struct{})
		for i := 0; i < flushers; i++ {
			go func() {
				<-start
				errs <- k.Flush()
			}()
		}
		close(start)
		for i := 0; i < flushers; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("trial %d: concurrent Flush: %v", trial, err)
			}
		}
		if n := k.Store().Collection(CollLiveAppends).Count(); n != 1 {
			t.Fatalf("trial %d: live_appends holds %d docs, want the one fold", trial, n)
		}
		after, err := k.LiveBatches("w")
		if err != nil {
			t.Fatal(err)
		}
		if len(after) != 1 || after[0].FoldedFrom != 1 || after[0].Revision != batches {
			t.Fatalf("trial %d: replay is %d batches, want one fold of [1..%d]", trial, len(after), batches)
		}
		gotE, gotP, gotR := flattenBatches(after)
		if !reflect.DeepEqual(gotE, wantE) || !reflect.DeepEqual(gotP, wantP) || !reflect.DeepEqual(gotR, wantR) {
			t.Fatalf("trial %d: folded replay stream differs from the unfolded one", trial)
		}
		if err := k.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLiveFlushBelowThresholdAllocsFlat: a flush over datasets with
// fewer batches than the fold threshold counts their batches through
// the index and decodes none of them, so it allocates the same however
// many batches they hold and however large those are.
func TestLiveFlushBelowThresholdAllocsFlat(t *testing.T) {
	flushAllocs := func(batches, records int) float64 {
		k, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		defer k.Close()
		for _, ds := range []string{"ward-a", "ward-b"} {
			for rev := 1; rev <= batches; rev++ {
				b := foldBatch(ds, rev)
				for len(b.Records) < records {
					b.Records = append(b.Records, b.Records[0])
				}
				if err := k.AppendLiveBatch(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := k.StoreLiveDataset(LiveDatasetState{Dataset: ds, Revision: batches}); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(5, func() {
			if err := k.Flush(); err != nil {
				t.Fatal(err)
			}
		})
		if n := k.Store().Collection(CollLiveAppends).Count(); n != 2*batches {
			t.Fatalf("live_appends holds %d docs after the flush, want %d: something folded", n, 2*batches)
		}
		return allocs
	}
	small := flushAllocs(2, 1)
	large := flushAllocs(DefaultLiveFoldThreshold-1, 200)
	if small != large {
		t.Errorf("a flush allocates %v times over 2 one-record batches per dataset but %v over %d of 200 records",
			small, large, DefaultLiveFoldThreshold-1)
	}
}
