package kdb

import (
	"errors"
	"testing"
	"time"

	"adahealth/internal/docstore"
	"adahealth/internal/faultfs"
	"adahealth/internal/obs"
)

// TestBreakerMetricsMoveOnTrip asserts the exported series actually
// track a breaker trip: repeated injected flush failures flip the
// kdb_breaker_mode enum gauge to read-only, advance the trip counter,
// and each refused write advances the dropped-writes counter. Values
// are read as deltas — the default registry is process-shared.
func TestBreakerMetricsMoveOnTrip(t *testing.T) {
	reg := obs.Default()
	trips0 := reg.Value("kdb_breaker_trips_total")
	drops0 := reg.Value("kdb_dropped_writes_total")
	flushErr0 := reg.Value("kdb_flushes_total", "error")

	ffs := faultfs.New(nil, 1)
	k, err := OpenStore(docstore.Options{Dir: t.TempDir(), FS: ffs, MaxWALBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	k.br.threshold = 2
	k.br.cooldown = time.Minute // keep the probe shut for the test's duration

	if err := k.StoreAnalysis(testDescriptor("a"), nil); err != nil {
		t.Fatal(err)
	}
	if got := reg.Value("kdb_breaker_mode", string(ModeHealthy)); got != 1 {
		t.Fatalf("healthy mode gauge = %v, want 1", got)
	}

	ffs.Inject(faultfs.Rule{Op: faultfs.OpWrite, Path: ".json.tmp", Err: faultfs.ENOSPC()})
	for i := 0; i < 2; i++ {
		if err := k.Flush(); err == nil {
			t.Fatalf("flush %d succeeded under snapshot fault", i)
		}
	}
	if k.Health().Mode != ModeReadOnly {
		t.Fatalf("mode = %s, want read-only", k.Health().Mode)
	}

	if got := reg.Value("kdb_breaker_mode", string(ModeReadOnly)); got != 1 {
		t.Errorf("read-only mode gauge = %v, want 1", got)
	}
	if got := reg.Value("kdb_breaker_mode", string(ModeHealthy)); got != 0 {
		t.Errorf("healthy mode gauge after trip = %v, want 0", got)
	}
	if d := reg.Value("kdb_breaker_trips_total") - trips0; d != 1 {
		t.Errorf("trips delta = %v, want 1", d)
	}
	if d := reg.Value("kdb_flushes_total", "error") - flushErr0; d < 2 {
		t.Errorf("flush error delta = %v, want >= 2", d)
	}

	if err := k.StoreAnalysis(testDescriptor("b"), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write while read-only = %v, want ErrReadOnly", err)
	}
	if d := reg.Value("kdb_dropped_writes_total") - drops0; d != 1 {
		t.Errorf("dropped writes delta = %v, want 1", d)
	}
}
