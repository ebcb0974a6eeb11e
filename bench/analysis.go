package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"adahealth/internal/core"
	"adahealth/internal/dataset"
	"adahealth/internal/service"
)

// analyses is what cohort-cold and clinic-warm share: an operation is
// POST /v1/analyses → follow the job's event stream to its end → GET
// the report, and every report is checked.
type analyses struct {
	logs   []*dataset.Log // inputs, in round order first
	bodies [][]byte       // pre-marshalled SubmitRequests, one per log
	reqs   []request      // the round (the same on every replay)

	// recall is what every report must say about the recall stage.
	recall recallWant
	// stableBestK demands the same BestK for the same body on every
	// replay. It holds where the job reads nothing an earlier job wrote
	// (cohort-cold: recall off).
	stableBestK bool

	mu    sync.Mutex
	bestK map[int]int // round position → BestK first seen
}

// recallWant is a workload's expectation of Report.Recall.
type recallWant int

const (
	recallAny  recallWant = iota // template building: first analyses may or may not hit
	recallMiss                   // cohort-cold: recall is disabled per job
	recallHit                    // clinic-warm: the K-DB knows every cohort
)

// reportView is the part of core.Report the checks read.
type reportView struct {
	Sweep *struct {
		BestK int `json:"best_k"`
		Rows  []struct {
			K int `json:"k"`
		} `json:"rows"`
	}
	Recall *struct {
		Hit bool `json:"hit"`
	}
	Degraded *struct {
		Reasons []string `json:"reasons"`
	} `json:"degraded"`
}

func (a *analyses) round(int) []request { return a.reqs }

// do runs one analysis end to end. The clock stops when the report's
// last byte is read; decoding and checking it is the harness's work,
// not the service's, and happens after.
func (a *analyses) do(e *env, c *client, req *request) (time.Duration, error) {
	base := e.d.base
	t0 := time.Now()
	if err := c.do(http.MethodPost, base+req.path, req.body, http.StatusAccepted); err != nil {
		return 0, err
	}
	t1 := time.Now()
	var sub service.SubmitResponse
	if err := json.Unmarshal(c.buf.Bytes(), &sub); err != nil || sub.ID == "" {
		return 0, fmt.Errorf("submit response %q: %v", c.buf.String(), err)
	}
	jobURL := base + "/v1/analyses/" + sub.ID
	if err := c.drain(jobURL + "/events"); err != nil {
		return 0, err
	}
	tEOF := time.Now()
	// 409 here means the stream ended on a job that is not done.
	if err := c.do(http.MethodGet, jobURL+"/report", nil, http.StatusOK); err != nil {
		return 0, err
	}
	tEnd := time.Now()
	lat := tEnd.Sub(t0)
	reportBytes := c.buf.Len()

	var rep reportView
	if err := json.Unmarshal(c.buf.Bytes(), &rep); err != nil {
		return lat, fmt.Errorf("decoding report of %s: %w", sub.ID, err)
	}
	if err := a.check(req.index, &rep); err != nil {
		return lat, fmt.Errorf("%s: %w", sub.ID, err)
	}
	if e.tr != nil {
		if err := traceAnalysis(e, c, jobURL, len(req.body), reportBytes, t0, t1, tEOF, tEnd); err != nil {
			return lat, err
		}
	}
	return lat, nil
}

func (a *analyses) check(index int, rep *reportView) error {
	if rep.Sweep == nil {
		return errors.New("report has no sweep")
	}
	if rep.Degraded != nil {
		return fmt.Errorf("analysis degraded: %v", rep.Degraded.Reasons)
	}
	inGrid := false
	for _, row := range rep.Sweep.Rows {
		inGrid = inGrid || row.K == rep.Sweep.BestK
	}
	if !inGrid {
		return fmt.Errorf("BestK %d is not in the evaluated grid", rep.Sweep.BestK)
	}
	hit := rep.Recall != nil && rep.Recall.Hit
	if (a.recall == recallHit && !hit) || (a.recall == recallMiss && hit) {
		return fmt.Errorf("recall hit = %v on a workload that wants %v", hit, !hit)
	}
	if !a.stableBestK {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.bestK == nil {
		a.bestK = map[int]int{}
	}
	if first, seen := a.bestK[index]; seen && first != rep.Sweep.BestK {
		return fmt.Errorf("BestK %d differs from %d of an earlier replay of the same body", rep.Sweep.BestK, first)
	}
	a.bestK[index] = rep.Sweep.BestK
	return nil
}

func (a *analyses) finish(*env) error { return nil }

// marshalSubmits builds one SubmitRequest body per log.
func (a *analyses) marshalSubmits(cfg *core.Config) error {
	a.bodies = make([][]byte, len(a.logs))
	for i, log := range a.logs {
		body, err := json.Marshal(service.SubmitRequest{Name: log.Name, Log: log, Config: cfg})
		if err != nil {
			return err
		}
		a.bodies[i] = body
	}
	return nil
}

func (a *analyses) setRound(n int) {
	a.reqs = make([]request, n)
	for i := range a.reqs {
		a.reqs[i] = request{index: i, path: "/v1/analyses", body: a.bodies[i]}
	}
}

// --- cohort-cold -------------------------------------------------------------

// cohortCold: four paper-shaped cohorts, recall disabled per job, an
// in-memory K-DB, one client. Every job runs the full Table-I grid with
// no prior knowledge, so the compute kernels are most of the job and
// storage does nothing.
type cohortCold struct{ analyses }

const coldPatients = 1000

// coldStructures are the synth seeds of the four cohorts' examination
// counts (inputs.go says why they are constants).
var coldStructures = []int64{1, 3, 4, 5}

func (*cohortCold) shape() shape { return shape{name: "cohort-cold", clients: 1} }

// A round of four cold jobs takes about 1.58 s on the reference machine.
func (*cohortCold) roundsFor(secs int) int { return max(3, secs*100/158) }

func (w *cohortCold) generate(seed int64, _ int) error {
	w.stableBestK = true
	w.recall = recallMiss
	rng := rand.New(rand.NewSource(seed))
	for i, structure := range coldStructures {
		log, err := cohort(fmt.Sprintf("cohort-%d", i), structure, coldPatients, 159, 8, rng)
		if err != nil {
			return err
		}
		w.logs = append(w.logs, log)
	}
	cold := &core.Config{Recall: core.RecallConfig{Disabled: true}}
	if err := w.marshalSubmits(cold); err != nil {
		return err
	}
	w.setRound(len(coldStructures))
	return nil
}

func (*cohortCold) buildTemplate(string) error { return nil }

func (w *cohortCold) probe(e *env, out metricSet) error {
	if err := probeKernels(e, w.logs[0], out); err != nil {
		return err
	}
	return probeKDB(e, w.logs[0], out)
}

// --- clinic-warm -------------------------------------------------------------

// clinicWarm: a durable K-DB that already holds 48 small analyses, a
// round of twelve clinic cohorts the K-DB knows, two clients. Recall
// hits, so the sweep is narrowed and warm-started, and with the job
// this small the K-DB write path, its queries, admission and dispatch,
// and the JSON codec hold their largest share of an operation.
type clinicWarm struct{ analyses }

const (
	clinicPriors      = 48
	clinicSnapshotAt  = 40 // priors in the template's snapshots; the rest are its WAL tail
	clinicRound       = 12
	clinicExamTypes   = 40
	clinicMinPatients = 150
	clinicMaxPatients = 600
)

func (*clinicWarm) shape() shape { return shape{name: "clinic-warm", clients: 2, durable: true} }

// A round of twelve warm jobs over two clients takes about 0.66 s.
func (*clinicWarm) roundsFor(secs int) int { return max(3, secs*100/66) }

func (w *clinicWarm) generate(seed int64, _ int) error {
	w.recall = recallHit
	rng := rand.New(rand.NewSource(seed))
	sizes := rand.New(rand.NewSource(clinicPriors)) // the clinics' sizes are structure too
	for i := 0; i < clinicPriors; i++ {
		patients := clinicMinPatients + sizes.Intn(clinicMaxPatients-clinicMinPatients+1)
		log, err := cohort(fmt.Sprintf("clinic-%02d", i), int64(100+i), patients, clinicExamTypes, 4, rng)
		if err != nil {
			return err
		}
		w.logs = append(w.logs, log)
	}
	if err := w.marshalSubmits(nil); err != nil {
		return err
	}
	w.setRound(clinicRound)
	return nil
}

// buildTemplate analyses all 48 cohorts once, one after the other, on
// a daemon over dir, and leaves dir as the running daemon had it: no
// graceful close, so the log holds a tail for the next boot to replay.
func (w *clinicWarm) buildTemplate(dir string) error {
	return withTemplateDaemon(dir, w.analysePriors)
}

func (w *clinicWarm) analysePriors(d *daemon, c *client) error {
	// The template's jobs are first analyses: an early one may or may
	// not find a similar predecessor, and none replays another.
	prior := analyses{recall: recallAny}
	e := &env{d: d}
	for i, body := range w.bodies {
		req := request{index: i, path: "/v1/analyses", body: body}
		if _, err := prior.do(e, c, &req); err != nil {
			return fmt.Errorf("template analysis %d: %w", i, err)
		}
		// One compaction at a fixed point: the snapshots hold the first
		// forty analyses and the log tail the last eight, a state every
		// production K-DB passes through, far enough below the 4 MB
		// budget that where the next compaction falls in a run depends
		// on the run's own writes alone.
		if i+1 == clinicSnapshotAt {
			if err := d.svc.Engine().KDB().Store().Compact(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *clinicWarm) probe(e *env, out metricSet) error {
	if err := probeKernels(e, w.logs[0], out); err != nil {
		return err
	}
	if err := probeKDB(e, w.logs[0], out); err != nil {
		return err
	}
	return probeDocstore(e, out)
}

// withTemplateDaemon runs fill against a daemon over dir/build and then
// copies that directory, as it stands under the live daemon, to
// dir/template.
func withTemplateDaemon(dir string, fill func(*daemon, *client) error) error {
	build := filepath.Join(dir, "build")
	d, err := boot(build, templateServiceConfig())
	if err != nil {
		return err
	}
	c := newClient()
	err = fill(d, c)
	c.close()
	if err == nil {
		// Nothing is in flight: every acknowledged write is in wal.log
		// or a snapshot, so the copy is the state a kill -9 would leave.
		err = copyDir(build, filepath.Join(dir, "template"))
	}
	if serr := d.shutdown(); err == nil {
		err = serr
	}
	return err
}
