package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/docstore"
	"adahealth/internal/stream"
	"adahealth/internal/synth"
)

const (
	wardPatients     = 300 // the registered log
	wardBatches      = 40  // appends per round
	batchPatients    = 3   // new patients per append
	batchRecordsEach = 5   // records per new patient
	wardExamTypes    = 40
)

// wardInputs is a 300-patient registration log plus visit batches of
// three new patients with five records each on average. structure fixes
// the examination counts, rng relabels (inputs.go).
func wardInputs(structure int64, batches int, rng *rand.Rand) (*dataset.Log, []stream.AppendRequest, error) {
	base, err := cohort("ward", structure, wardPatients, wardExamTypes, 4, rng)
	if err != nil {
		return nil, nil, err
	}
	// The arrivals come from the same generator (same catalog, same
	// profile mix), under identifiers the registered log cannot hold.
	cfg := synth.SmallConfig()
	cfg.Seed = structure + 1
	cfg.NumExamTypes = wardExamTypes
	cfg.NumPatients = batches * batchPatients
	cfg.TargetRecords = cfg.NumPatients * batchRecordsEach
	arrivals, err := synth.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	relabel(arrivals, "Q", rng)
	byPatient := map[string][]dataset.Record{}
	for _, r := range arrivals.Records {
		byPatient[r.PatientID] = append(byPatient[r.PatientID], r)
	}
	reqs := make([]stream.AppendRequest, batches)
	for b := range reqs {
		for _, p := range arrivals.Patients[b*batchPatients : (b+1)*batchPatients] {
			reqs[b].Patients = append(reqs[b].Patients, p)
			reqs[b].Records = append(reqs[b].Records, byPatient[p.ID]...)
		}
	}
	return base, reqs, nil
}

// --- ward-stream -------------------------------------------------------------

// wardStream: a durable K-DB; a round registers one fixed 300-patient
// log under a fresh name and appends forty fixed visit batches to it,
// one client. Append → model-updated is the stream layer's in-place
// VSM maintenance and mini-batch re-clustering plus the live_appends
// WAL commits; the full pipeline runs only when drift fires.
type wardStream struct {
	base     *dataset.Log
	batches  []stream.AppendRequest
	register []byte   // the PUT body
	appends  [][]byte // the forty POST bodies
	rounds   [][]request

	mu       sync.Mutex
	revision map[string]int // dataset → last revision seen
}

func (*wardStream) shape() shape { return shape{name: "ward-stream", clients: 1, durable: true} }

// A round of one registration and forty appends takes about 0.27 s.
func (*wardStream) roundsFor(secs int) int { return max(3, secs*100/27) }

func (w *wardStream) generate(seed int64, rounds int) error {
	var err error
	w.base, w.batches, err = wardInputs(200, wardBatches, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	if w.register, err = json.Marshal(stream.RegisterRequest{Log: w.base}); err != nil {
		return err
	}
	w.appends = make([][]byte, len(w.batches))
	for i, b := range w.batches {
		if w.appends[i], err = json.Marshal(b); err != nil {
			return err
		}
	}
	// A fresh dataset name per round keeps every round's work the same.
	w.rounds = make([][]request, rounds)
	for r := range w.rounds {
		path := fmt.Sprintf("/v1/datasets/ward-%d", r)
		reqs := []request{{index: 0, path: path, register: true, body: w.register}}
		for i, body := range w.appends {
			reqs = append(reqs, request{index: i + 1, path: path + "/visits", body: body})
		}
		w.rounds[r] = reqs
	}
	w.revision = map[string]int{}
	return nil
}

// buildTemplate leaves an empty durable K-DB: the ward daemon starts
// with nothing to recover, as a new ward does.
func (w *wardStream) buildTemplate(dir string) error {
	return withTemplateDaemon(dir, func(*daemon, *client) error { return nil })
}

func (w *wardStream) round(r int) []request { return w.rounds[r] }

func (w *wardStream) do(e *env, c *client, req *request) (time.Duration, error) {
	method, want := http.MethodPost, http.StatusAccepted
	if req.register {
		method, want = http.MethodPut, http.StatusCreated
	}
	t0 := time.Now()
	err := c.do(method, e.d.base+req.path, req.body, want)
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	lat := t1.Sub(t0)
	var st stream.DatasetStatus
	if err := json.Unmarshal(c.buf.Bytes(), &st); err != nil {
		return lat, fmt.Errorf("decoding dataset status: %w", err)
	}
	if err := w.checkRevision(&st, req.register); err != nil {
		return lat, err
	}
	if e.tr != nil {
		op := e.tr.nextOp()
		root := e.tr.add("op", t0, t1, -1, op)
		if req.register {
			e.tr.add("stream.register_http", t0, t1, root, op)
		} else {
			e.tr.add("stream.append_http", t0, t1, root, op)
			e.lay.add("stream.append_http_ms", ms(lat))
		}
	}
	return lat, nil
}

// checkRevision holds every reply to the stream contract: registration
// is revision 1, each append advances the revision by exactly one, and
// the online model has caught up with it.
func (w *wardStream) checkRevision(st *stream.DatasetStatus, register bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	want := w.revision[st.Dataset] + 1
	if register {
		want = 1
	}
	if st.Revision != want {
		return fmt.Errorf("%s at revision %d, want %d", st.Dataset, st.Revision, want)
	}
	if st.ModelRevision != st.Revision {
		return fmt.Errorf("%s model at revision %d behind %d", st.Dataset, st.ModelRevision, st.Revision)
	}
	w.revision[st.Dataset] = st.Revision
	return nil
}

// finish checks every dataset ended forty revisions above its
// registration.
func (w *wardStream) finish(e *env) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for name, rev := range w.revision {
		if rev != 1+wardBatches {
			return fmt.Errorf("%s ended at revision %d, want %d", name, rev, 1+wardBatches)
		}
	}
	return nil
}

func (w *wardStream) probe(e *env, out metricSet) error {
	if err := probeStream(e, w.base, w.batches, out); err != nil {
		return err
	}
	if err := probeKDB(e, w.base, out); err != nil {
		return err
	}
	return probeDocstore(e, out)
}

// --- kdb-replica -------------------------------------------------------------

// kdbReplica: the clinic-warm K-DB plus one live dataset on the leader
// and a warm standby following it; an operation is an append on the
// leader, the wait until the standby has applied the leader's log up to
// that commit, and a knowledge read on the standby. It is the
// write-on-leader → readable-on-standby latency.
type kdbReplica struct {
	clinic  clinicWarm
	base    *dataset.Log
	batches []stream.AppendRequest
	rounds  [][]request
}

const (
	replicaRound   = 20
	replicaDataset = "replica-ward"
	// The read asks for one known clinic's top patterns (about 2 ms on
	// the standby). The unscoped ranking decodes every stored item
	// (80 ms over the 48 clinics), which put append + read right at the
	// leader's 100 ms poll period: operations flipped between one period
	// and two from run to run and ops_per_s spread over 16 %.
	replicaRead = "/v1/knowledge?dataset=clinic-00&metric=support&limit=20"
)

func (*kdbReplica) shape() shape {
	return shape{name: "kdb-replica", clients: 1, durable: true, replica: true}
}

// A round of twenty operations takes about 2.05 s: the leader's 100 ms
// WAL poll paces it. The timer makes it the steadiest workload, so its
// phase is the shortest (its template and boot cycles are the dearest).
func (*kdbReplica) roundsFor(secs int) int { return max(3, secs*10/25) }

func (w *kdbReplica) generate(seed int64, rounds int) error {
	if err := w.clinic.generate(seed, rounds); err != nil {
		return err
	}
	// One dataset takes every round's appends, so each round brings its
	// own twenty batches of new patients, all from one generator run.
	// One more round than the phases replay feeds the replication probe.
	rounds++
	var err error
	w.base, w.batches, err = wardInputs(300, rounds*replicaRound, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	w.rounds = make([][]request, rounds)
	for r := range w.rounds {
		for i := 0; i < replicaRound; i++ {
			body, err := json.Marshal(w.batches[r*replicaRound+i])
			if err != nil {
				return err
			}
			w.rounds[r] = append(w.rounds[r], request{
				index: i, path: "/v1/datasets/" + replicaDataset + "/visits", body: body,
			})
		}
	}
	return nil
}

func (w *kdbReplica) buildTemplate(dir string) error {
	register, err := json.Marshal(stream.RegisterRequest{Log: w.base})
	if err != nil {
		return err
	}
	return withTemplateDaemon(dir, func(d *daemon, c *client) error {
		if err := w.clinic.analysePriors(d, c); err != nil {
			return err
		}
		return c.do(http.MethodPut, d.base+"/v1/datasets/"+replicaDataset, register, http.StatusCreated)
	})
}

func (w *kdbReplica) round(r int) []request { return w.rounds[r] }

func (w *kdbReplica) do(e *env, c *client, req *request) (time.Duration, error) {
	d := e.d
	t0 := time.Now()
	if err := c.do(http.MethodPost, d.base+req.path, req.body, http.StatusAccepted); err != nil {
		return 0, err
	}
	t1 := time.Now()
	// The 202 is the durability point: both of the append's commits are
	// in the leader's log, at or below this offset.
	committed := d.svc.Engine().KDB().Store().ReplStatus().Offset
	if err := d.awaitApplied(committed); err != nil {
		return 0, err
	}
	t2 := time.Now()
	if err := c.do(http.MethodGet, d.standby.base+replicaRead, nil, http.StatusOK); err != nil {
		return 0, err
	}
	t3 := time.Now()
	lat := t3.Sub(t0)

	var read struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &read); err != nil {
		return lat, fmt.Errorf("decoding standby read: %w", err)
	}
	if read.Count <= 0 {
		return lat, errors.New("standby read returned no knowledge items")
	}
	if e.tr != nil {
		op := e.tr.nextOp()
		root := e.tr.add("op", t0, t3, -1, op)
		e.tr.add("repl.append_rtt", t0, t1, root, op)
		e.tr.add("repl.commit_to_applied", t1, t2, root, op)
		e.tr.add("repl.read_rtt", t2, t3, root, op)
		e.lay.add("repl.append_rtt_ms", ms(t1.Sub(t0)))
		e.lay.add("repl.commit_to_applied_ms", ms(t2.Sub(t1)))
		e.lay.add("repl.read_rtt_ms", ms(t3.Sub(t2)))
	}
	return lat, nil
}

// finish checks convergence: the standby has applied every frame, and
// its wal.log is byte-equal to the leader's durable log.
func (w *kdbReplica) finish(e *env) error {
	d := e.d
	store := d.svc.Engine().KDB().Store()
	// A background flush (after a drift-triggered re-analysis) may still
	// be writing; converge on a position the leader holds still at.
	var leader docstore.ReplPosition
	for attempt := 0; ; attempt++ {
		leader = store.ReplStatus()
		if err := d.awaitApplied(leader.Offset); err != nil {
			return err
		}
		if pos := d.standby.f.Replica().Position(); pos == leader && store.ReplStatus() == leader {
			break
		} else if attempt == 100 {
			return fmt.Errorf("standby at %+v, leader at %+v", pos, leader)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if lag := d.standby.f.Lag(); lag.FramesBehind != 0 {
		return fmt.Errorf("standby converged at offset %d but reports %d frames behind", lag.LastAppliedOffset, lag.FramesBehind)
	}
	leaderLog, err := os.ReadFile(filepath.Join(d.kdbDir, "wal.log"))
	if err != nil {
		return err
	}
	standbyLog, err := os.ReadFile(filepath.Join(d.standbyDir, "wal.log"))
	if err != nil {
		return err
	}
	if int64(len(leaderLog)) < leader.Offset || !bytes.Equal(standbyLog, leaderLog[:leader.Offset]) {
		return fmt.Errorf("standby wal.log (%d bytes) is not the leader's durable prefix (%d of %d bytes)",
			len(standbyLog), leader.Offset, len(leaderLog))
	}
	return nil
}

func (w *kdbReplica) probe(e *env, out metricSet) error {
	if err := probeRepl(e, w, out); err != nil {
		return err
	}
	if err := probeKDB(e, w.clinic.logs[0], out); err != nil {
		return err
	}
	return probeDocstore(e, out)
}
