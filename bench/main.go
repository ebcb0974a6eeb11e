// Command bench is the repository's benchmark: it boots the production
// daemon topology in this process, drives one of four fixed workloads
// over loopback HTTP, verifies every output, and reports four
// end-to-end metrics and the per-layer metrics beneath them.
//
//	go run ./bench -workload clinic-warm -seed 7
//	go run ./bench                      # all four workloads, both phases
//
// README.md has the method, the metric and workload tables, and how to
// read the trace files under bench/out/.
package main

import (
	_ "embed"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"adahealth/internal/obs"
	"adahealth/internal/service"
)

// options are the command's flags. The driver passes workload, seed,
// seconds and trace; smoke and out serve the package's own test.
type options struct {
	workload string
	seed     int64
	seconds  int
	// trace selects what a run measures: 0 the end-to-end metrics only,
	// 1 the per-layer metrics only (a short untraced phase, the traced
	// phase, the probes), -1 both in one run, for a person at a
	// terminal.
	trace int
	smoke bool
	out   string
}

// Boot cycles per run: setup_s is their median.
const (
	bootCycles      = 15
	smokeBootCycles = 3
)

func newWorkloads() []workload {
	return []workload{&cohortCold{}, &clinicWarm{}, &wardStream{}, &kdbReplica{}}
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "cohort-cold, clinic-warm, ward-stream or kdb-replica (default: all four)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the synthetic inputs")
	flag.IntVar(&opt.seconds, "seconds", 20, "length of the measured phase this run's constant round count is sized for")
	flag.IntVar(&opt.trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; -1: both")
	flag.BoolVar(&opt.smoke, "smoke", false, "one round, three boot cycles, no accounting gates")
	flag.StringVar(&opt.out, "out", filepath.Join("bench", "out"), "directory for trace files and scratch K-DBs")
	flag.Parse()
	os.Exit(run(opt))
}

func run(opt options) int {
	if err := validateMetricNames(endToEndMetrics, perLayerMetrics); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var chosen []workload
	for _, w := range newWorkloads() {
		if opt.workload == "" || opt.workload == w.shape().name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 || opt.seconds < 1 || opt.trace < -1 || opt.trace > 1 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q, or seconds/trace out of range\n", opt.workload)
		flag.Usage()
		return 2
	}
	code := 0
	for _, w := range chosen {
		res, err := runWorkload(w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.shape().name, err)
			return 1
		}
		if err := writeResult(os.Stdout, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// tally adds up every operation a run attempts, whatever the phase.
type tally struct {
	attempted, failed int
	errs              []error
}

func (t *tally) add(p *phase) {
	t.attempted += p.attempted
	t.failed += p.failed
	if p.firstErr != nil {
		t.errs = append(t.errs, p.firstErr)
	}
}

// check counts one verification as an operation of its own.
func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.failed++
		t.errs = append(t.errs, fmt.Errorf("%s: %w", what, err))
	}
}

// runWorkload executes one run of w: generate → template → boot cycles
// → warm-up round → measured phase → traced phase and probes.
func runWorkload(w workload, opt options) (result, error) {
	sh := w.shape()
	measured := w.roundsFor(opt.seconds)
	traced := (measured + 3) / 4
	boots := bootCycles
	if opt.smoke {
		measured, traced, boots = 1, 1, smokeBootCycles
	}
	if opt.trace == 1 {
		// Per-layer run: the untraced phase only has to anchor
		// trace.overhead_ratio, and setup_s is not reported.
		measured, boots = traced, 0
	}
	if opt.trace == 0 {
		traced = 0
	}
	set := metricSet{}
	var tl tally

	t0 := time.Now()
	if err := w.generate(opt.seed, 1+measured+traced); err != nil {
		return result{}, fmt.Errorf("generating inputs: %w", err)
	}
	set["synth.generate_ms"] = ms(time.Since(t0))

	work, err := filepath.Abs(filepath.Join(opt.out, fmt.Sprintf("tmp-%s-%d", sh.name, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	if err := w.buildTemplate(work); err != nil {
		return result{}, fmt.Errorf("building the K-DB template: %w", err)
	}

	var setups []time.Duration
	for i := 0; i < boots; i++ {
		d, err := bootCycle(w, work, &tl)
		if err != nil {
			return result{}, fmt.Errorf("boot cycle %d: %w", i, err)
		}
		setups = append(setups, d)
	}
	if boots > 0 {
		set["setup_s"] = median(seconds(setups))
	}

	dir, err := freshKDB(w, work, "live")
	if err != nil {
		return result{}, err
	}
	d, err := bootOver(w, dir)
	if err != nil {
		return result{}, err
	}
	clients := make([]*client, sh.clients)
	for i := range clients {
		clients[i] = newClient()
	}
	e := &env{d: d, lay: newLayerSamples(), smoke: opt.smoke}

	// One untimed round fills caches, connection pools and the sweep
	// arena; a smoke run goes without.
	next := 0
	if !opt.smoke {
		tl.add(runRounds(w, e, clients, 0, 1))
		next = 1
	}
	quiesce(d)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := runRounds(w, e, clients, next, next+measured)
	quiesce(d)
	runtime.ReadMemStats(&m1)
	next += measured
	tl.add(ph)
	tl.check("phase-end check", w.finish(e))

	lat := millis(ph.lat)
	opsPerRound := len(w.round(0))
	untracedP50 := percentile(lat, 0.5)
	if opt.trace != 1 {
		set["op_p50_ms"] = untracedP50
		set["ops_per_s"] = medianRoundThroughput(opsPerRound, ph.roundWalls)
		set["alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / float64(len(lat))
		ph.context(set)
	}

	if traced > 0 {
		e.tr = &tracer{}
		before := readCounters(d)
		tp := runRounds(w, e, clients, next, next+traced)
		quiesce(d)
		tl.add(tp)
		tl.check("phase-end check (traced)", w.finish(e))
		tlat := millis(tp.lat)
		set["trace.overhead_ratio"] = percentile(tlat, 0.5) / untracedP50
		if opt.trace == 1 {
			tp.context(set)
		}
		before.deltas(d, len(tlat), set)

		tl.check("probes", probeCommon(e, set))
		tl.check("probes", w.probe(e, set))
		e.lay.medians(set)
		path, err := e.tr.write(opt.out, sh.name, opt.seed)
		if err != nil {
			return result{}, fmt.Errorf("writing the trace file: %w", err)
		}
		fmt.Printf("%-14s trace file: %s\n", sh.name, path)
	}

	for _, c := range clients {
		c.close()
	}
	if err := d.shutdown(); err != nil {
		return result{}, fmt.Errorf("shutting the daemon down: %w", err)
	}

	for _, err := range tl.errs {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %v\n", sh.name, err)
	}
	fmt.Printf("%-14s rounds: %d measured, %d traced, %d boot cycles; %d ops per round, %d client(s), closed loop\n",
		sh.name, measured, traced, boots, opsPerRound, sh.clients)
	var tables [][]metricDef
	if opt.trace != 1 {
		tables = append(tables, endToEndMetrics)
	}
	if opt.trace != 0 {
		tables = append(tables, perLayerMetrics)
	}
	// The table shows everything the run measured (a -trace 0 run still
	// has its tail latencies and the reference kernel); the result line
	// carries the tables its mode is asked for.
	printTable(os.Stdout, sh.name, set, endToEndMetrics, perLayerMetrics)
	warnRefKernel(sh.name, set["host.ref_kernel_ms"])
	correct := tl.failed == 0
	if !opt.smoke && opt.trace != 0 {
		for _, msg := range accounting(w, set) {
			fmt.Fprintf(os.Stderr, "bench: %s: ACCOUNTING: %s\n", sh.name, msg)
			// A driver run reports the layer figures as measured; a
			// person's run fails when the layers do not add up.
			if opt.trace == -1 {
				correct = false
			}
		}
	}
	return result{
		Correct:   correct,
		Attempted: tl.attempted,
		Failed:    tl.failed,
		Metrics:   project(set, tables...),
	}, nil
}

// freshKDB copies the template into work/<slot> and returns that
// directory; an in-memory workload has none ("").
func freshKDB(w workload, work, slot string) (string, error) {
	if !w.shape().durable {
		return "", nil
	}
	dir := filepath.Join(work, slot)
	return dir, copyDir(filepath.Join(work, "template"), dir)
}

// bootOver boots the production topology over dir, standby included
// on kdb-replica.
func bootOver(w workload, dir string) (*daemon, error) {
	d, err := boot(dir, service.Config{})
	if err != nil {
		return nil, err
	}
	if w.shape().replica {
		standbyDir := dir + "-standby"
		if err := os.RemoveAll(standbyDir); err != nil {
			return nil, err
		}
		if err := d.attachStandby(standbyDir); err != nil {
			_ = d.shutdown()
			return nil, err
		}
	}
	return d, nil
}

// bootCycle is one sample of setup_s. The template copy is not timed;
// the clock runs from service.New (snapshot load and WAL-tail replay)
// through stream.NewManager (live-dataset recovery), handlers and
// listener (and, on kdb-replica, follower open, bootstrap and first
// stream connect) until the round's first operation has completed.
func bootCycle(w workload, work string, tl *tally) (time.Duration, error) {
	dir, err := freshKDB(w, work, "boot")
	if err != nil {
		return 0, err
	}
	c := newClient()
	defer c.close()
	first := w.round(0)[0]

	// A daemon boots into an empty heap; collect the last cycle's
	// garbage so this one's collector starts from the same place.
	runtime.GC()
	t0 := time.Now()
	d, err := bootOver(w, dir)
	if err != nil {
		return 0, err
	}
	_, opErr := w.do(&env{d: d}, c, &first)
	took := time.Since(t0)

	tl.check("first operation after boot", opErr)
	quiesce(d)
	return took, d.shutdown()
}

// quiesce waits, outside every clock, until no job is queued or
// running and no live dataset has a re-analysis in flight, so one
// phase's background work does not run into the next.
func quiesce(d *daemon) {
	for {
		st := d.svc.Stats()
		busy := st.Queued+st.Running > 0
		for _, ds := range d.mgr.Datasets() {
			busy = busy || ds.Resweeping
		}
		if !busy {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// counters are the /metrics series and store gauges whose movement over
// the traced phase becomes per-operation layer counts.
type counters struct {
	walCommits, compactions, resweeps float64
	walBytes                          int64
}

func readCounters(d *daemon) counters {
	reg := obs.Default()
	return counters{
		walCommits:  reg.Value("docstore_wal_commit_seconds"),
		compactions: reg.Value("docstore_compactions_total", "ok"),
		resweeps:    reg.Value("stream_resweeps_total", "scheduled"),
		walBytes:    d.svc.Engine().KDB().Store().WALSize(),
	}
}

func (before counters) deltas(d *daemon, ops int, set metricSet) {
	after := readCounters(d)
	set["docstore.fsyncs_per_op"] = (after.walCommits - before.walCommits) / float64(ops)
	set["docstore.compactions"] = after.compactions - before.compactions
	set["stream.resweeps"] = after.resweeps - before.resweeps
	// A compaction resets the log, so bytes per operation is only known
	// for a phase without one.
	if after.compactions == before.compactions {
		set["docstore.wal_kb_per_op"] = float64(after.walBytes-before.walBytes) / 1e3 / float64(ops)
	}
}

// accounting checks that the layers add up to the end-to-end figure
// where the issue demands it.
func accounting(w workload, set metricSet) []string {
	var out []string
	switch w.shape().name {
	case "cohort-cold", "clinic-warm":
		op := set["service.submit_rtt_ms"] + set["service.queue_wait_ms"] + set["service.run_ms"] +
			set["service.events_tail_ms"] + set["service.report_rtt_ms"]
		if u := set["service.unexplained_ms"]; u >= 0.10*op {
			out = append(out, fmt.Sprintf("service.unexplained_ms %.3f is not below 10%% of the operation (%.3f ms)", u, op))
		}
	case "kdb-replica":
		op := set["repl.append_rtt_ms"] + set["repl.commit_to_applied_ms"] + set["repl.read_rtt_ms"]
		parts := set["repl.poll_wait_ms"] + set["repl.apply_ms"] + set["repl.append_rtt_ms"] + set["repl.read_rtt_ms"]
		if parts < 0.90*op {
			out = append(out, fmt.Sprintf("poll wait + apply + append and read round trips = %.3f ms explain under 90%% of the operation (%.3f ms)", parts, op))
		}
	}
	return out
}

//go:embed README.md
var readme string

var refKernelRE = regexp.MustCompile(`host\.ref_kernel_ms at the baseline: ([0-9.]+)`)

// warnRefKernel tells a reader the machine moved: the fixed kernel's
// median is more than 5 % off the value README.md stores.
func warnRefKernel(workload string, got float64) {
	m := refKernelRE.FindStringSubmatch(readme)
	if m == nil || got == 0 {
		return
	}
	stored, err := strconv.ParseFloat(m[1], 64)
	if err != nil || stored == 0 {
		return
	}
	if off := got/stored - 1; math.Abs(off) > 0.05 {
		fmt.Fprintf(os.Stderr, "bench: %s: WARNING: host.ref_kernel_ms %.3f is %+.0f%% off the stored %.3f: the machine moved, compare timings with care\n",
			workload, got, off*100, stored)
	}
}
