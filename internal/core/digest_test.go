package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"adahealth/internal/dataset"
	"adahealth/internal/synth"
)

// reportDigest is the sha256 of a Report's JSON with its execution
// telemetry (stage intervals, allocation deltas and the observed stage
// concurrency) zeroed: every descriptor figure, matrix summary,
// partial-mining step, sweep row, cluster, pattern, rule,
// recommendation and demand point, to the last bit of each float.
func reportDigest(t *testing.T, rep *Report) string {
	t.Helper()
	c := *rep
	c.Stages = nil
	c.StageConcurrency = 0
	buf, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestReportDigestPinned makes a whole analysis a hash comparison: a
// cohort of the benchmark's cohort-cold shape (1000 patients, 159 exam
// types, 8 profiles), a 300-patient clinic cohort (40 exam types, 4
// profiles) and a 200-patient cohort over 12 exam types (4 profiles),
// dense enough that every partial-mining probe and the sweep cluster
// with the dense Lloyd scan, go through the full pipeline under the engine's zero-value
// configuration on a fresh in-memory K-DB, and the digest of each
// Report must equal a committed constant. A change anywhere between
// the log and the Report that moves one bit fails here.
func TestReportDigestPinned(t *testing.T) {
	cases := []struct {
		name                          string
		seed                          int64
		patients, examTypes, profiles int
		want                          string
	}{
		{"cohort", 1, 1000, 159, 8, "f8e7369501a81d5abf4905b03eefcfaaf2a09c7ca59399de8495cba3eb1dc5bf"},
		{"clinic", 100, 300, 40, 4, "9da0db8f4afac9fccb8d112523784838357e5e9ae3408615b573ba08d6e1b92c"},
		{"dense", 2, 200, 12, 4, "acd7ea661c4ecad4ef14fbd25a8224f3ae91b8d93db76992068dbd4452c830c7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := digestCohort(t, tc.name, tc.seed, tc.patients, tc.examTypes, tc.profiles)
			e, err := New(Config{})
			if err != nil {
				t.Fatal(err)
			}
			rep, err := e.Analyze(log)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportDigest(t, rep); got != tc.want {
				t.Errorf("%s report digest %s, want %s", tc.name, got, tc.want)
			}
		})
	}
}

// digestCohort synthesizes a named cohort of 15 records per patient.
func digestCohort(t *testing.T, name string, seed int64, patients, examTypes, profiles int) *dataset.Log {
	t.Helper()
	cfg := synth.DefaultConfig()
	cfg.Seed = seed
	cfg.NumPatients = patients
	cfg.TargetRecords = 15 * patients
	cfg.NumExamTypes = examTypes
	cfg.NumProfiles = profiles
	log, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log.Name = name
	return log
}

// TestRecallHitReportDigestPinned pins a Report whose recall hits:
// three clinic-shaped cohorts (300 patients, 40 exam types, 4
// profiles) are analyzed on one engine, then the first is analyzed
// again. The warm Report — recall sources, prior and narrowed Ks, the
// seeded sweep and the end-goal recommendations trained over the
// K-DB's history — must hash to a committed constant.
func TestRecallHitReportDigestPinned(t *testing.T) {
	e, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([]*dataset.Log, 3)
	for i := range logs {
		logs[i] = digestCohort(t, fmt.Sprintf("clinic-%c", 'a'+i), 100+int64(i), 300, 40, 4)
		if _, err := e.Analyze(logs[i]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := e.Analyze(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Recall == nil || !rep.Recall.Hit {
		t.Fatalf("warm recall = %+v, want a hit", rep.Recall)
	}
	const want = "8aa2736b1f224f0b590b7ad493f70122f625c4de6023a344953ef55db7a76468"
	if got := reportDigest(t, rep); got != want {
		t.Errorf("recall-hit report digest %s, want %s", got, want)
	}
}
