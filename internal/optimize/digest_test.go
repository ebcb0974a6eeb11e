package optimize

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"adahealth/internal/partial"
	"adahealth/internal/synth"
	"adahealth/internal/vsm"
)

// sweepDigest is the sha256 of a sweep's JSON rows followed by its
// selected K: every SSE, CV metric and iteration count of Table I, to
// the last bit of each float.
func sweepDigest(t *testing.T, res *SweepResult) string {
	t.Helper()
	rows, err := json.Marshal(res.Rows)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(fmt.Appendf(rows, "|best_k=%d", res.BestK))
	return hex.EncodeToString(sum[:])
}

// TestSweepRowsDigestPinned makes "bit-for-bit" a hash comparison:
// cohorts of the benchmark's cohort-cold shape go through the
// pipeline's transform → partial mining → sweep path under the
// engine's zero-value configuration, and the digest of the resulting
// rows must equal a committed constant for every Parallelism, with and
// without an Arena. A change to the tree grower, the CV split or the
// K-means kernels that moves a single bit of any row fails here.
func TestSweepRowsDigestPinned(t *testing.T) {
	want := map[int64]string{
		1: "7fb4e5023266dc81ce813e8edaee61b2300709bd3d8ed7adf69b159cd4af0113",
		3: "a8e6202b4d471b00b386c604299247ab16a6b32fd86fa62e8869e160d8a2f0ea",
	}
	ctx := context.Background()
	for _, structure := range []int64{1, 3} {
		cfg := synth.DefaultConfig()
		cfg.Seed = structure
		cfg.NumPatients = 1000
		cfg.TargetRecords = 15000
		cfg.NumExamTypes = 159
		cfg.NumProfiles = 8
		log, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		matrix, err := vsm.Build(log, vsm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pres, err := partial.RunHorizontal(ctx, matrix, partial.Config{})
		if err != nil {
			t.Fatal(err)
		}
		working := matrix.Project(pres.SelectedStep().NumFeatures)

		arena := NewArena() // cold at Parallelism 1, warm slabs at 2
		for _, par := range []int{1, 2} {
			for _, a := range []*Arena{nil, arena} {
				res, err := SweepMatrix(ctx, working, SweepConfig{Parallelism: par, Arena: a})
				if err != nil {
					t.Fatal(err)
				}
				if got := sweepDigest(t, res); got != want[structure] {
					t.Errorf("structure seed %d, %d×%d working matrix, Parallelism %d, arena %v: digest %s, want %s",
						structure, working.NumRows(), working.NumFeatures(), par, a != nil, got, want[structure])
				}
			}
		}
	}
}
