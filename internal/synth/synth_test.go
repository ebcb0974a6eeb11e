package synth

import (
	"cmp"
	"maps"
	"slices"
	"testing"
)

func TestGenerateSmallShape(t *testing.T) {
	cfg := SmallConfig()
	log, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if got := log.NumPatients(); got != cfg.NumPatients {
		t.Errorf("patients = %d, want %d", got, cfg.NumPatients)
	}
	if got := log.NumRecords(); got != cfg.TargetRecords {
		t.Errorf("records = %d, want exactly %d", got, cfg.TargetRecords)
	}
	if got := log.NumExamTypes(); got != cfg.NumExamTypes {
		t.Errorf("exam types = %d, want %d", got, cfg.NumExamTypes)
	}
}

func TestGenerateEveryExamPresent(t *testing.T) {
	log, err := Generate(SmallConfig())
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	for code, c := range log.ExamFrequencies() {
		if c == 0 {
			t.Errorf("exam %s has no records", code)
		}
	}
}

func TestGenerateValidates(t *testing.T) {
	cfg := SmallConfig()
	log, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if err := log.Encoded().Check(); err != nil {
		t.Errorf("generated log: %v", err)
	}
	for _, p := range log.Patients {
		if p.Age < cfg.AgeMin || p.Age > cfg.AgeMax {
			t.Fatalf("patient %s age %d outside [%d,%d]", p.ID, p.Age, cfg.AgeMin, cfg.AgeMax)
		}
	}
	end := cfg.StartDate.AddDate(0, 0, cfg.Days)
	for i, r := range log.Records {
		if r.Date.Before(cfg.StartDate) || r.Date.After(end) {
			t.Fatalf("record %d dated %v outside the observation window", i, r.Date)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumRecords() != b.NumRecords() {
		t.Fatalf("record counts differ: %d vs %d", a.NumRecords(), b.NumRecords())
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestGenerateSeedChangesData(t *testing.T) {
	cfg := SmallConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 99
	b, _ := Generate(cfg)
	same := true
	for i := range a.Records {
		if i >= len(b.Records) || a.Records[i] != b.Records[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical logs")
	}
}

func TestGenerateProfilesAssigned(t *testing.T) {
	cfg := SmallConfig()
	log, _ := Generate(cfg)
	seen := map[string]int{}
	for _, p := range log.Patients {
		if p.Profile == "" {
			t.Fatalf("patient %s has no profile", p.ID)
		}
		seen[p.Profile]++
	}
	if len(seen) != cfg.NumProfiles {
		t.Errorf("distinct profiles = %d, want %d", len(seen), cfg.NumProfiles)
	}
}

func TestGenerateCoverageShape(t *testing.T) {
	// The Zipf exponent is tuned so the top 20% of exam types cover
	// roughly 70% of records and the top 40% roughly 85% (§IV-B).
	cfg := DefaultConfig()
	cfg.NumPatients = 1500
	cfg.TargetRecords = 22500
	log, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	freq := log.ExamFrequencies()
	codes := slices.SortedFunc(maps.Keys(freq), func(a, b string) int { return cmp.Compare(freq[b], freq[a]) })
	coverage := func(frac float64) float64 {
		n := int(frac * float64(len(codes)))
		covered := 0
		for _, c := range codes[:n] {
			covered += freq[c]
		}
		return float64(covered) / float64(log.NumRecords())
	}
	if c20 := coverage(0.20); c20 < 0.60 || c20 > 0.80 {
		t.Errorf("top-20%% coverage = %.3f, want ≈0.70 (0.60..0.80)", c20)
	}
	if c40 := coverage(0.40); c40 < 0.78 || c40 > 0.92 {
		t.Errorf("top-40%% coverage = %.3f, want ≈0.85 (0.78..0.92)", c40)
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no patients", func(c *Config) { c.NumPatients = 0 }},
		{"few exams", func(c *Config) { c.NumExamTypes = 5 }},
		{"no profiles", func(c *Config) { c.NumProfiles = 0 }},
		{"records < patients", func(c *Config) { c.TargetRecords = c.NumPatients - 1 }},
		{"bad ages", func(c *Config) { c.AgeMin, c.AgeMax = 50, 40 }},
		{"no days", func(c *Config) { c.Days = 0 }},
		{"bad zipf", func(c *Config) { c.ZipfExponent = 0 }},
		{"bad fidelity", func(c *Config) { c.ProfileFidelity = 1.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := SmallConfig()
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %s", tc.name)
			}
			if _, err := Generate(cfg); err == nil {
				t.Errorf("Generate accepted %s", tc.name)
			}
		})
	}
}

func TestPaperScaleConfigIsPaperScale(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.NumPatients != 6380 || cfg.TargetRecords != 95788 || cfg.NumExamTypes != 159 {
		t.Errorf("DefaultConfig drifted from the paper: %+v", cfg)
	}
	if cfg.AgeMin != 4 || cfg.AgeMax != 95 || cfg.Days != 365 {
		t.Errorf("DefaultConfig age/window drifted: %+v", cfg)
	}
}
