package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"adahealth/internal/cluster"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/vsm"
)

// TestNewRejectsBadConfig: New must fail bad configurations with a
// descriptive error at construction time instead of silently
// defaulting — the admission-time contract the job service relies on.
func TestNewRejectsBadConfig(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error
	}{
		{"support above one", Config{MinSupportFrac: 1.5}, "MinSupportFrac"},
		{"negative support", Config{MinSupportFrac: -0.1}, "MinSupportFrac"},
		{"confidence above one", Config{MinConfidence: 1.2}, "MinConfidence"},
		{"negative confidence", Config{MinConfidence: -0.5}, "MinConfidence"},
		{"negative pattern cap", Config{MaxPatternItems: -1}, "MaxPatternItems"},
		{"negative parallelism", Config{Parallelism: -2}, "Parallelism"},
		{"negative seed", Config{Seed: -7}, "Seed"},
		{"unknown sweep algorithm", Config{Sweep: optimize.SweepConfig{Cluster: cluster.Options{Algorithm: cluster.Algorithm(99)}}}, "algorithm"},
		{"unknown partial algorithm", Config{Partial: partial.Config{Cluster: cluster.Options{Algorithm: cluster.Algorithm(-1)}}}, "algorithm"},
		{"unknown weighting", Config{VSM: vsm.Options{Weighting: 7}}, "weighting"},
		{"negative weighting", Config{VSM: vsm.Options{Weighting: -1}}, "weighting"},
		{"unknown normalization", Config{VSM: vsm.Options{Normalization: 9}}, "normalization"},
		{"negative batch size", Config{Sweep: optimize.SweepConfig{Cluster: cluster.Options{BatchSize: -5}}}, "batch"},
		{"negative partial batch size", Config{Partial: partial.Config{Cluster: cluster.Options{BatchSize: -1}}}, "batch"},
		{"sweep K below 2", Config{Sweep: optimize.SweepConfig{Ks: []int{1}}}, "K=1"},
		{"one CV fold", Config{Sweep: optimize.SweepConfig{CVFolds: 1}}, "CVFolds"},
		{"negative CV folds", Config{Sweep: optimize.SweepConfig{CVFolds: -3}}, "CVFolds"},
		{"partial K below 1", Config{Partial: partial.Config{Ks: []int{0}}}, "K must be"},
		{"partial fractions without full data", Config{Partial: partial.Config{Fractions: []float64{0.5}}}, "last fraction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Fatalf("New accepted %+v", tc.cfg)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %s", err, tc.want)
			}
			if err := tc.cfg.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", tc.cfg)
			}
		})
	}
}

// TestNewAcceptsZeroAndBoundaryConfig: zero values select defaults and
// in-range boundaries pass.
func TestNewAcceptsZeroAndBoundaryConfig(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{MinSupportFrac: 1, MinConfidence: 1},
		{MinSupportFrac: 0.02, MinConfidence: 0.6, MaxPatternItems: 10, Parallelism: 2, Seed: 42},
		{Sweep: optimize.SweepConfig{Cluster: cluster.Options{Algorithm: cluster.DenseLloyd}}},
		{VSM: vsm.Options{Weighting: vsm.TFIDF, Normalization: vsm.L1}},
		{Sweep: optimize.SweepConfig{Cluster: cluster.Options{Algorithm: cluster.AlgorithmMiniBatch, BatchSize: 512}}},
	} {
		e, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		if e.Config().MinSupportFrac <= 0 || e.Config().MinConfidence <= 0 {
			t.Fatalf("defaults not filled: %+v", e.Config())
		}
	}
}

// TestWithConfigSharesKDB: a derived engine validates its override and
// keeps the parent's knowledge base.
func TestWithConfigSharesKDB(t *testing.T) {
	e, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.WithConfig(Config{MinConfidence: 3}); err == nil {
		t.Error("WithConfig accepted MinConfidence 3")
	}
	d, err := e.WithConfig(Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if d.KDB() != e.KDB() {
		t.Error("derived engine does not share the parent K-DB")
	}
	if d.Config().Seed != 9 {
		t.Errorf("derived seed = %d, want 9", d.Config().Seed)
	}
}

// FuzzConfigValidate decodes any bytes as JSON into a Config, the path
// a per-job `config` override takes: Validate must not panic, and a
// config it accepts must survive a JSON round trip unchanged and
// validate again. Seeds live in testdata/fuzz/FuzzConfigValidate.
func FuzzConfigValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		var cfg Config
		if json.Unmarshal(raw, &cfg) != nil || cfg.Validate() != nil {
			return
		}
		out, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("an accepted config does not marshal: %v", err)
		}
		var back Config
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("an accepted config's JSON %s does not decode: %v", out, err)
		}
		if !reflect.DeepEqual(back, cfg) {
			t.Fatalf("round trip changed the config:\nwant %+v\ngot  %+v", cfg, back)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("an accepted config fails Validate after a round trip: %v", err)
		}
	})
}
