package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"adahealth/internal/classify"
	"adahealth/internal/cluster"
	"adahealth/internal/dataset"
	"adahealth/internal/docstore"
	"adahealth/internal/eval"
	"adahealth/internal/fpm"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/repl"
	"adahealth/internal/stats"
	"adahealth/internal/stream"
	"adahealth/internal/vsm"
)

// The probes call each layer's public functions directly, on the
// workload's own inputs and K-DB, after the traced phase. Each figure
// is the median of a few repeats; none is gated.
const (
	kernelReps = 3
	replayReps = 5
	queryReps  = 20
	writeReps  = 20
)

// probeCommon measures the instrumentation itself: one /metrics scrape
// at the cardinality the run has reached.
func probeCommon(e *env, out metricSet) error {
	c := newClient()
	defer c.close()
	err := e.timed("obs.scrape_ms", 5, func() error {
		return c.do(http.MethodGet, e.d.base+"/metrics", nil, http.StatusOK)
	})
	if err != nil {
		return err
	}
	series := 0
	for _, line := range strings.Split(c.buf.String(), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			series++
		}
	}
	out["obs.series"] = float64(series)
	return nil
}

// probeKernels runs the pipeline's compute kernels one by one on log,
// the way the stages call them, outside the scheduler.
func probeKernels(e *env, log *dataset.Log, out metricSet) error {
	ctx := context.Background()
	cfg := e.d.svc.Engine().Config()
	// A service job runs its kernels at its fair share of the stage
	// pool (core.AnalyzeOptions.FairShare = 4 workers): on two cores
	// that is serial, and the probes run them the same way.
	cfg.Sweep.Parallelism = 1
	cfg.Sweep.Cluster.Parallelism = 1
	cfg.Partial.Cluster.Parallelism = 1

	if err := e.timed("stats.characterize_ms", kernelReps, func() error {
		stats.Characterize(log)
		return nil
	}); err != nil {
		return err
	}

	var matrix *vsm.Matrix
	if err := e.timed("vsm.build_ms", kernelReps, func() (err error) {
		matrix, err = vsm.Build(log, cfg.VSM)
		return err
	}); err != nil {
		return err
	}

	var pres *partial.Result
	if err := e.timed("partial.mine_ms", kernelReps, func() (err error) {
		pres, err = partial.RunHorizontal(ctx, matrix, cfg.Partial)
		return err
	}); err != nil {
		return err
	}
	working := matrix.Project(pres.SelectedStep().NumFeatures)

	// The patterns stage: visit baskets, taxonomy extension, generalized
	// FP-growth at the engine's relative support.
	tax := fpm.Taxonomy{}
	for _, ex := range log.Exams {
		if ex.Category != "" {
			tax[ex.Code] = "category:" + ex.Category
		}
	}
	if err := e.timed("fpm.mine_ms", kernelReps, func() error {
		visits := log.Visits()
		txs := make([][]string, len(visits))
		for i, v := range visits {
			txs[i] = v.ExamCodes
		}
		minSupport := int(cfg.MinSupportFrac * float64(len(txs)))
		if minSupport < 2 {
			minSupport = 2
		}
		_, err := fpm.MineGeneralizedEncoded(tax.ExtendEncoded(fpm.NewTransactions(txs)), tax, minSupport)
		return err
	}); err != nil {
		return err
	}

	var cold *optimize.SweepResult
	if err := e.timed("optimize.sweep_cold_ms", kernelReps, func() (err error) {
		cold, err = optimize.SweepMatrix(ctx, working, cfg.Sweep)
		return err
	}); err != nil {
		return err
	}
	// The warm sweep is what a recall hit buys: the grid narrowed to the
	// neighbourhood of a known best K, the chain seeded from converged
	// centroids.
	warm := cfg.Sweep
	warm.Ks = neighbours(optimize.DefaultKs(), cold.BestK)
	warm.SeedCentroids = cold.BestClustering.Centroids
	if err := e.timed("optimize.sweep_warm_ms", kernelReps, func() error {
		_, err := optimize.SweepMatrix(ctx, working, warm)
		return err
	}); err != nil {
		return err
	}

	var fit *cluster.Result
	if err := e.timed("cluster.kmeans_auto_ms", kernelReps, func() (err error) {
		fit, err = cluster.KMeans(working.Rows, cluster.Options{K: 8, Algorithm: cluster.AlgorithmAuto, Seed: cfg.Seed, Parallelism: 1})
		return err
	}); err != nil {
		return err
	}
	out["cluster.kmeans_iters"] = float64(fit.Iterations)

	tree := func() classify.Classifier { return classify.NewDecisionTree(cfg.Sweep.Tree) }
	return e.timed("classify.cv_ms", kernelReps, func() error {
		_, err := eval.CrossValidate(tree, working.Rows, fit.Labels, 10, cfg.Seed)
		return err
	})
}

// neighbours is k's position in grid with one grid step either side,
// what recall's narrowing keeps around a single prior K.
func neighbours(grid []int, k int) []int {
	for i, g := range grid {
		if g == k {
			lo, hi := i-1, i+2
			if lo < 0 {
				lo = 0
			}
			if hi > len(grid) {
				hi = len(grid)
			}
			return grid[lo:hi]
		}
	}
	return grid
}

// probeKDB times the K-DB calls the workloads lean on: recall's
// similarity scan, the ranked knowledge read (on the standby where
// there is one), a knowledge-item store and a live-batch append.
func probeKDB(e *env, log *dataset.Log, out metricSet) error {
	kb := e.d.svc.Engine().KDB()
	desc := stats.Characterize(log)
	if err := e.timed("kdb.similar_ms", queryReps, func() error {
		_, err := kb.SimilarDatasets(desc, "", 0)
		return err
	}); err != nil {
		return err
	}
	out["kdb.similar_scanned"] = float64(kb.Counts()[kdb.CollDescriptors])

	reader := kb
	if e.d.standby != nil {
		reader = e.d.standby.kb
	}
	if err := e.timed("kdb.topk_ms", queryReps, func() error {
		_, err := reader.TopKnowledge("", "support", 20)
		return err
	}); err != nil {
		return err
	}

	// One cluster set of K=8 over forty features: the shape of what a
	// clinic job's store-knowledge stage writes for its clustering.
	fit := &cluster.Result{K: 8, Sizes: make([]int, 8), Labels: make([]int, 8), Algorithm: "probe"}
	features := make([]string, 40)
	for i := range features {
		features[i] = fmt.Sprintf("EX%03d", i+1)
	}
	for c := 0; c < fit.K; c++ {
		fit.Centroids = append(fit.Centroids, make([]float64, len(features)))
	}
	items := knowledge.FromClusterResult("bench-probe", fit, features, 5)
	if err := e.timed("kdb.store_items_ms", writeReps, func() error {
		return kb.StoreKnowledgeItems(items)
	}); err != nil {
		return err
	}

	rev := 0
	return e.timed("kdb.live_append_ms", writeReps, func() error {
		rev++
		return kb.AppendLiveBatch(kdb.LiveBatch{
			Dataset: "bench-probe", Revision: rev,
			Patients: []dataset.Patient{{ID: fmt.Sprintf("probe-%d", rev), Age: 50}},
		})
	})
}

// probeDocstore times the store under a durable K-DB: a lone WAL
// commit, two writers sharing group commits, an indexed lookup, the
// boot-time replay of the template's log tail, and one compaction
// (last: it resets the log).
func probeDocstore(e *env, out metricSet) error {
	store := e.d.svc.Engine().KDB().Store()
	coll := store.Collection("bench_probe")
	insert := func() error {
		_, err := coll.Insert(docstore.Document{"dataset": "bench-probe", "payload": "0123456789abcdef"})
		return err
	}
	if err := e.timed("docstore.wal_commit_ms", writeReps, insert); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = e.timed("docstore.wal_commit_par_ms", writeReps, insert)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	// probeKDB stored a cluster set under this dataset name.
	if err := e.timed("docstore.find_eq_ms", queryReps, func() error {
		store.Collection(kdb.CollClusterKI).FindEq("dataset", "bench-probe")
		return nil
	}); err != nil {
		return err
	}

	if err := probeReplay(e, out); err != nil {
		return err
	}
	if e.d.standby != nil {
		// A compaction bumps the epoch and sends the standby through a
		// re-bootstrap; kdb-replica leaves its log alone.
		return nil
	}
	return e.timed("docstore.compact_ms", 1, store.Compact)
}

// probeReplay opens copies of the template with and without its
// wal.log: the difference is the WAL-tail replay every boot pays.
func probeReplay(e *env, out metricSet) error {
	template := filepath.Join(filepath.Dir(e.d.kdbDir), "template")
	scratch := filepath.Join(filepath.Dir(e.d.kdbDir), "replay")
	defer os.RemoveAll(scratch)
	open := func(name string, withLog bool) error {
		var frames int64
		for i := 0; i < replayReps; i++ {
			if err := copyDir(template, scratch); err != nil {
				return err
			}
			if !withLog {
				if err := os.Remove(filepath.Join(scratch, "wal.log")); err != nil {
					return err
				}
			}
			var s *docstore.Store
			if err := e.timed(name, 1, func() (err error) {
				s, err = docstore.Open(scratch)
				return err
			}); err != nil {
				return err
			}
			frames = s.ReplStatus().Frames
			if err := s.Close(); err != nil {
				return err
			}
		}
		if withLog {
			out["docstore.replay_frames"] = float64(frames)
		}
		return nil
	}
	if err := open("docstore.open_ms", true); err != nil {
		return err
	}
	if err := open("docstore.open_snapshots_ms", false); err != nil {
		return err
	}
	out["docstore.replay_ms"] = math.Max(0, e.lay.take("docstore.open_ms")-e.lay.take("docstore.open_snapshots_ms"))
	return nil
}

// probeStream times the stream layer without HTTP: a registration, the
// forty appends through Dataset.Append, and under them vsm.Live's
// in-place append and one mini-batch re-clustering.
func probeStream(e *env, base *dataset.Log, batches []stream.AppendRequest, out metricSet) error {
	n := 0
	var ds *stream.Dataset
	if err := e.timed("stream.register_ms", kernelReps, func() error {
		n++
		name := fmt.Sprintf("probe-direct-%d", n)
		if _, err := e.d.mgr.Register(name, base.Exams, base.Patients, base.Records); err != nil {
			return err
		}
		ds, _ = e.d.mgr.Get(name)
		return nil
	}); err != nil {
		return err
	}
	next := 0
	if err := e.timed("stream.append_direct_ms", len(batches), func() error {
		b := batches[next]
		next++
		_, err := ds.Append(b.Exams, b.Patients, b.Records)
		return err
	}); err != nil {
		return err
	}

	cfg := e.d.svc.Engine().Config()
	live := vsm.NewLive(cfg.VSM)
	if err := live.Append(base.Exams, base.Patients, base.Records); err != nil {
		return err
	}
	next = 0
	if err := e.timed("vsm.live_append_ms", len(batches), func() error {
		b := batches[next]
		next++
		return live.Append(b.Exams, b.Patients, b.Records)
	}); err != nil {
		return err
	}
	rows := live.Matrix().Rows
	if err := e.timed("cluster.minibatch_ms", queryReps, func() error {
		// The online model's settings (stream.Config defaults).
		_, err := cluster.KMeans(rows, cluster.Options{K: 8, Algorithm: cluster.AlgorithmMiniBatch, MaxIter: 50, Seed: cfg.Seed})
		return err
	}); err != nil {
		return err
	}
	// What HTTP adds to an append: the traced phase's round trips
	// against the same forty appends made directly.
	out["stream.append_http_overhead_ms"] = e.lay.take("stream.append_http_ms") - median(e.lay.m["stream.append_direct_ms"])
	return nil
}

// probeRepl takes the replication path apart: how long a commit waits
// for the leader's WAL poll (on a raw stream of the harness's own),
// how long the shipped bytes take to apply on a replica, and how fast
// a fresh follower bootstraps and catches up with the phase's whole
// log.
func probeRepl(e *env, w *kdbReplica, out metricSet) error {
	d := e.d
	store := d.svc.Engine().KDB().Store()
	work := filepath.Dir(d.kdbDir)

	// A replica at the leader's current position, to apply captured
	// frames to.
	start, files, err := store.SnapshotBootstrap()
	if err != nil {
		return err
	}
	scratch := filepath.Join(work, "apply")
	defer os.RemoveAll(scratch)
	rep, err := docstore.OpenReplica(docstore.Options{Dir: scratch})
	if err != nil {
		return err
	}
	defer rep.Close()
	if err := rep.InstallSnapshot(start.Epoch, files); err != nil {
		return err
	}
	prefix, err := os.ReadFile(filepath.Join(d.kdbDir, "wal.log"))
	if err != nil {
		return err
	}
	if _, _, err := rep.ApplyFrames(prefix[:start.Offset]); err != nil {
		return err
	}

	// The raw stream: what a follower's connection sees, byte by byte.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	url := fmt.Sprintf("%s%s?epoch=%d&from=%d", d.base, repl.WALPath, start.Epoch, start.Offset)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", repl.WALPath, resp.StatusCode)
	}

	c := newClient()
	defer c.close()
	at := start.Offset
	buf := make([]byte, 64<<10)
	// The probe's appends are the last round generated, which no phase
	// has replayed.
	for _, r := range w.rounds[len(w.rounds)-1] {
		if err := c.do(http.MethodPost, d.base+r.path, r.body, http.StatusAccepted); err != nil {
			return err
		}
		acked := time.Now()
		committed := store.ReplStatus().Offset
		var shipped []byte
		for at < committed {
			n, err := resp.Body.Read(buf)
			if err != nil && !(errors.Is(err, io.EOF) && n > 0) {
				return fmt.Errorf("raw WAL stream at %d of %d: %w", at, committed, err)
			}
			shipped = append(shipped, buf[:n]...)
			at += int64(n)
		}
		arrived := time.Now()
		e.lay.add("repl.poll_wait_ms", ms(arrived.Sub(acked)))
		e.tr.add("repl.poll_wait", acked, arrived, -1, -1)
		if err := e.timed("repl.apply_ms", 1, func() error {
			_, _, err := rep.ApplyFrames(shipped)
			return err
		}); err != nil {
			return err
		}
		// The operation's read follows, untimed, so the next append
		// lands where an operation's append lands in the poll cycle.
		if err := c.do(http.MethodGet, d.standby.base+replicaRead, nil, http.StatusOK); err != nil {
			return err
		}
	}
	if err := d.awaitApplied(store.ReplStatus().Offset); err != nil {
		return err
	}

	// Fresh followers over the whole log.
	leader := store.ReplStatus()
	for i := 0; i < kernelReps; i++ {
		dir := filepath.Join(work, "catchup")
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		f, err := repl.OpenFollower(repl.FollowerOptions{LeaderURL: d.base, Dir: dir})
		if err != nil {
			return err
		}
		t0 := time.Now()
		f.Start(context.Background())
		var bootstrapped time.Time
		ok := waitUntil(func() bool {
			if bootstrapped.IsZero() && f.Lag().Bootstraps > 0 {
				bootstrapped = time.Now()
			}
			pos := f.Replica().Position()
			return pos.Epoch == leader.Epoch && pos.Offset >= leader.Offset
		})
		caught := time.Now()
		if err := f.Close(); err != nil {
			return err
		}
		if !ok {
			return errors.New("fresh follower did not catch up")
		}
		if bootstrapped.IsZero() {
			bootstrapped = caught
		}
		e.lay.add("repl.bootstrap_ms", ms(bootstrapped.Sub(t0)))
		e.lay.add("repl.catchup_frames_per_s", float64(leader.Frames)/caught.Sub(t0).Seconds())
		e.tr.add("repl.bootstrap", t0, bootstrapped, -1, -1)
		e.tr.add("repl.catchup", t0, caught, -1, -1)
		_ = os.RemoveAll(dir)
	}
	return nil
}
