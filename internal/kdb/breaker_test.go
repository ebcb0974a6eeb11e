package kdb

import (
	"errors"
	"testing"
	"time"

	"adahealth/internal/docstore"
	"adahealth/internal/faultfs"
	"adahealth/internal/knowledge"
	"adahealth/internal/stats"
)

func testDescriptor(name string) stats.Descriptor {
	return stats.Descriptor{DatasetName: name, NumPatients: 10, NumRecords: 100}
}

// TestBreakerOfflineOnBrokenStore drives a WAL write fault through the
// K-DB: the failing write surfaces the store error, the breaker goes
// offline, and both writes and reads are then refused with ErrOffline.
func TestBreakerOfflineOnBrokenStore(t *testing.T) {
	ffs := faultfs.New(nil, 1)
	k, err := OpenStore(docstore.Options{Dir: t.TempDir(), FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()

	if err := k.StoreAnalysis(testDescriptor("a"), nil); err != nil {
		t.Fatal(err)
	}
	if h := k.Health(); h.Mode != ModeHealthy {
		t.Fatalf("healthy store mode = %s", h.Mode)
	}

	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: "wal.log", Err: faultfs.ENOSPC()})
	if err := k.StoreAnalysis(testDescriptor("b"), nil); !errors.Is(err, docstore.ErrStoreBroken) {
		t.Fatalf("write over broken WAL = %v, want ErrStoreBroken", err)
	}

	h := k.Health()
	if h.Mode != ModeOffline || h.Reason == "" {
		t.Fatalf("health after broken store = %+v, want offline with reason", h)
	}
	if err := k.StoreAnalysis(testDescriptor("c"), nil); !errors.Is(err, ErrOffline) {
		t.Fatalf("write while offline = %v, want ErrOffline", err)
	}
	if _, err := k.Descriptors(); !errors.Is(err, ErrOffline) {
		t.Fatalf("read while offline = %v, want ErrOffline", err)
	}
	if _, err := k.SimilarDatasets(testDescriptor("a"), "", 5); !errors.Is(err, ErrOffline) {
		t.Fatalf("similar while offline = %v, want ErrOffline", err)
	}
	if _, _, ok := k.LatestDescriptor("a"); ok {
		t.Fatal("LatestDescriptor served while offline")
	}
	if err := k.Flush(); !errors.Is(err, ErrOffline) {
		t.Fatalf("flush while offline = %v, want ErrOffline", err)
	}
	if k.Health().DroppedWrites == 0 {
		t.Error("dropped writes not counted")
	}
}

// TestBreakerReadOnlyTripAndRecover trips the breaker with repeated
// compaction failures, verifies reads keep serving while writes are
// refused, then heals the disk and checks the half-open probe closes
// the breaker.
func TestBreakerReadOnlyTripAndRecover(t *testing.T) {
	ffs := faultfs.New(nil, 1)
	// A tiny WAL budget so every Flush triggers compaction.
	k, err := OpenStore(docstore.Options{Dir: t.TempDir(), FS: ffs, MaxWALBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	k.br.threshold = 2
	k.br.cooldown = 10 * time.Millisecond

	if err := k.StoreAnalysis(testDescriptor("a"), nil); err != nil {
		t.Fatal(err)
	}
	if err := k.StoreKnowledgeItems([]knowledge.Item{{
		ID: "ki1", Dataset: "a", Kind: knowledge.KindCluster,
	}}); err != nil {
		t.Fatal(err)
	}

	// Snapshot faults: compaction fails, the WAL stays intact.
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: ".json.tmp", Err: faultfs.ENOSPC()})
	for i := 0; i < 2; i++ {
		if err := k.Flush(); err == nil {
			t.Fatalf("flush %d succeeded under snapshot fault", i)
		}
	}
	h := k.Health()
	if h.Mode != ModeReadOnly || h.Trips != 1 || h.ConsecutiveFlushFailures != 2 {
		t.Fatalf("health after flush failures = %+v, want read-only trip", h)
	}

	// Reads keep serving; writes are refused and counted.
	if _, err := k.KnowledgeItems("a", 0); err != nil {
		t.Fatalf("read while read-only: %v", err)
	}
	if _, _, ok := k.LatestDescriptor("a"); !ok {
		t.Fatal("LatestDescriptor refused while read-only")
	}
	if err := k.StoreAnalysis(testDescriptor("b"), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write while read-only = %v, want ErrReadOnly", err)
	}
	if got := k.Health().DroppedWrites; got != 1 {
		t.Fatalf("dropped writes = %d, want 1", got)
	}

	// Inside the cooldown the probe is refused outright.
	if err := k.Flush(); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("flush inside cooldown = %v, want ErrReadOnly", err)
	}

	// Heal, wait out the cooldown: the half-open probe closes the
	// breaker and writes work again.
	ffs.Clear()
	time.Sleep(15 * time.Millisecond)
	if err := k.Flush(); err != nil {
		t.Fatalf("probe flush after heal: %v", err)
	}
	if h := k.Health(); h.Mode != ModeHealthy || h.ConsecutiveFlushFailures != 0 {
		t.Fatalf("health after recovery = %+v, want healthy", h)
	}
	if err := k.StoreAnalysis(testDescriptor("b"), nil); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}

// TestBreakerProbeFailureStaysOpen: a failing half-open probe keeps the
// breaker read-only and re-arms the cooldown.
func TestBreakerProbeFailureStaysOpen(t *testing.T) {
	ffs := faultfs.New(nil, 1)
	k, err := OpenStore(docstore.Options{Dir: t.TempDir(), FS: ffs, MaxWALBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	k.br.threshold = 1
	k.br.cooldown = 5 * time.Millisecond

	if err := k.StoreAnalysis(testDescriptor("a"), nil); err != nil {
		t.Fatal(err)
	}
	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: ".json.tmp", Err: faultfs.ENOSPC()})
	if err := k.Flush(); err == nil {
		t.Fatal("flush succeeded under snapshot fault")
	}
	if k.Health().Mode != ModeReadOnly {
		t.Fatal("breaker did not trip")
	}
	time.Sleep(10 * time.Millisecond)
	if err := k.Flush(); err == nil { // probe runs, still faulty
		t.Fatal("probe flush succeeded under fault")
	}
	if h := k.Health(); h.Mode != ModeReadOnly {
		t.Fatalf("mode after failed probe = %s, want read-only", h.Mode)
	}
}
