package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

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
// types, 8 profiles) and a 300-patient clinic cohort (40 exam types, 4
// profiles) go through the full pipeline under the engine's zero-value
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := synth.DefaultConfig()
			cfg.Seed = tc.seed
			cfg.NumPatients = tc.patients
			cfg.TargetRecords = 15 * tc.patients
			cfg.NumExamTypes = tc.examTypes
			cfg.NumProfiles = tc.profiles
			log, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			log.Name = tc.name
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
