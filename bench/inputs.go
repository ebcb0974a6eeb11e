package main

import (
	"fmt"
	"math/rand"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/synth"
)

// What the seed varies, and what it does not.
//
// The cost of an analysis is chaotic in the examination counts: which
// fraction of exam types partial mining keeps and how many iterations
// each K-means of the sweep takes decide it, and 1000-patient cohorts
// drawn from neighbouring synth seeds measured 350 ms or 800 ms (two
// modes, a factor 2.2 apart). A benchmark whose work moves that much
// with the seed cannot tell a 10 % regression from a different draw.
// So the structure of every input — who has how many of which exam,
// grouped into which visits — comes from synth under the constants
// below, and the seed draws everything else: the patients' identifiers
// and ages and when their visits happened. Two seeds give different
// request bodies of the same size that cost the same to analyse.

// relabel redraws, from rng, what the analysis kernels do not read:
// patient identifiers (prefix plus a fixed width, so body sizes stay
// put and two logs relabelled under different prefixes share none), ages (a
// few years either way) and dates (each patient's records shift
// together, so visits keep their contents).
func relabel(log *dataset.Log, prefix string, rng *rand.Rand) {
	ids := make(map[string]string, len(log.Patients))
	taken := make(map[string]bool, len(log.Patients))
	shift := make(map[string]time.Duration, len(log.Patients))
	for i := range log.Patients {
		p := &log.Patients[i]
		id := fmt.Sprintf("%s%08x", prefix, rng.Uint32())
		for taken[id] {
			id = fmt.Sprintf("%s%08x", prefix, rng.Uint32())
		}
		taken[id] = true
		ids[p.ID] = id
		shift[id] = time.Duration(rng.Intn(28)) * 24 * time.Hour
		p.ID = id
		if p.Age += rng.Intn(5) - 2; p.Age < 1 {
			p.Age = 1
		}
	}
	for i := range log.Records {
		r := &log.Records[i]
		r.PatientID = ids[r.PatientID]
		r.Date = r.Date.Add(shift[r.PatientID])
	}
	log.ReindexAfterLoad()
}

// cohort generates one synthetic log of the given shape under a
// structure constant, names it, and relabels it from the run's seed.
func cohort(name string, structure int64, patients, examTypes, profiles int, rng *rand.Rand) (*dataset.Log, error) {
	cfg := synth.DefaultConfig()
	cfg.Seed = structure
	cfg.NumPatients = patients
	cfg.TargetRecords = 15 * patients
	cfg.NumExamTypes = examTypes
	cfg.NumProfiles = profiles
	log, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	log.Name = name
	relabel(log, "P", rng)
	return log, nil
}
