package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"adahealth/internal/dataset"
	"adahealth/internal/optimize"
	"adahealth/internal/partial"
	"adahealth/internal/synth"
)

// seededConfig is the fast test pipeline configuration at a given
// seed.
func seededConfig(seed int64) Config {
	return Config{
		Seed: seed,
		Partial: partial.Config{
			Ks: []int{4},
		},
		Sweep: optimize.SweepConfig{
			Ks:      []int{3, 4, 5},
			CVFolds: 4,
		},
	}
}

func seededLog(t *testing.T, seed int64) *dataset.Log {
	t.Helper()
	cfg := synth.SmallConfig()
	cfg.Seed = seed
	log, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// comparable strips the execution telemetry — the only Report fields
// allowed to differ between two schedules of one analysis — and
// projects Recommendations to a value-comparable form (endgoal.Goal
// embeds its feasibility-check closure, and non-nil funcs are never
// reflect.DeepEqual).
func comparable(rep *Report) Report {
	c := *rep
	c.Stages = nil
	c.StageConcurrency = 0
	c.Recommendations = nil
	return c
}

// recProjection is the func-free view of one recommendation.
type recProjection struct {
	GoalID   string
	Feasible bool
	Reason   string
	Interest string
	Score    float64
	Source   string
}

func projectRecs(rep *Report) []recProjection {
	out := make([]recProjection, len(rep.Recommendations))
	for i, r := range rep.Recommendations {
		out[i] = recProjection{
			GoalID:   string(r.Goal.ID),
			Feasible: r.Feasible,
			Reason:   r.Reason,
			Interest: string(r.Interest),
			Score:    r.Score,
			Source:   r.Source,
		}
	}
	return out
}

// TestAnalyzeDAGMatchesSequential is the scheduling-equivalence
// property: for several generator/algorithm seeds, the DAG on a
// one-slot pool (stages run one at a time, in whichever order the
// ready stages win the slot) must produce a bit-for-bit identical
// Report to the DAG on four slots. The Report does not depend on how
// stages interleave.
func TestAnalyzeDAGMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		log := seededLog(t, seed)

		serialCfg := seededConfig(seed)
		serialCfg.Parallelism = 1
		serialEngine, err := New(serialCfg)
		if err != nil {
			t.Fatal(err)
		}
		serialRep, err := serialEngine.Analyze(log)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}

		dagCfg := seededConfig(seed)
		dagCfg.Parallelism = 4
		dagEngine, err := New(dagCfg)
		if err != nil {
			t.Fatal(err)
		}
		dagRep, err := dagEngine.AnalyzeContext(context.Background(), log)
		if err != nil {
			t.Fatalf("seed %d DAG: %v", seed, err)
		}

		if !reflect.DeepEqual(comparable(serialRep), comparable(dagRep)) {
			t.Errorf("seed %d: 4-slot report differs from 1-slot report", seed)
		}
		if !reflect.DeepEqual(projectRecs(serialRep), projectRecs(dagRep)) {
			t.Errorf("seed %d: 4-slot recommendations differ from 1-slot", seed)
		}
		// Both runs traced every stage of the pipeline.
		want := len(dagEngine.pipelineStages())
		if len(serialRep.Stages) != want || len(dagRep.Stages) != want {
			t.Errorf("seed %d: stage traces serial=%d dag=%d, want %d",
				seed, len(serialRep.Stages), len(dagRep.Stages), want)
		}
		if serialRep.StageConcurrency != 1 {
			t.Errorf("seed %d: 1-slot StageConcurrency = %d, want 1", seed, serialRep.StageConcurrency)
		}
		// The knowledge was persisted to the K-DB of each engine.
		stored, err := dagEngine.KDB().KnowledgeItems(log.Name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(stored) != len(dagRep.Ranked) {
			t.Errorf("seed %d: K-DB holds %d knowledge items, want %d", seed, len(stored), len(dagRep.Ranked))
		}
	}
}

// TestAnalyzeCancellationMidSweep asserts Analyze honours context
// cancellation promptly: a context cancelled while the pipeline is in
// flight surfaces as ctx.Err() well before the analysis could finish.
func TestAnalyzeCancellationMidSweep(t *testing.T) {
	cfg := seededConfig(1)
	// Stretch the sweep so cancellation reliably lands mid-flight.
	cfg.Sweep.Ks = []int{3, 4, 5, 6, 7, 8, 9, 10}
	cfg.Sweep.CVFolds = 8
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	log := seededLog(t, 1)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(3 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = e.AnalyzeContext(ctx, log)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancelled analysis took %v to return", elapsed)
	}

	// A context that is already dead never starts the pipeline.
	dead, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := e.AnalyzeContext(dead, log); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled err = %v, want context.Canceled", err)
	}
}

// TestConcurrentAnalysesMatchSerial runs several logs concurrently on
// one engine's shared pool and checks each report, recommendations included, is
// bit-for-bit what a serial Analyze of the same log yields. Recall is
// off: with it on, an analysis may recall a sibling that finished
// first, so its report would depend on completion order.
func TestConcurrentAnalysesMatchSerial(t *testing.T) {
	logs := []*dataset.Log{
		seededLog(t, 1), seededLog(t, 2), seededLog(t, 3), seededLog(t, 4),
	}
	// Distinct names so per-dataset K-DB records don't collide.
	for i, l := range logs {
		l.Name = l.Name + "-" + string(rune('a'+i))
	}
	cfg := seededConfig(1)
	cfg.Recall.Disabled = true

	shared, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]*Report, len(logs))
	errs := make([]error, len(logs))
	var wg sync.WaitGroup
	for i, log := range logs {
		wg.Add(1)
		go func(i int, log *dataset.Log) {
			defer wg.Done()
			reports[i], errs[i] = shared.AnalyzeContext(context.Background(), log)
		}(i, log)
	}
	wg.Wait()

	for i, log := range logs {
		if errs[i] != nil {
			t.Fatalf("concurrent analysis %d: %v", i, errs[i])
		}
		single, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := single.Analyze(log)
		if err != nil {
			t.Fatal(err)
		}
		// Recommendations are compared structurally too: with no
		// feedback recorded, sibling descriptors in the shared K-DB
		// must not change the prior-driven recommendation.
		if !reflect.DeepEqual(comparable(reports[i]), comparable(want)) {
			t.Errorf("concurrent report %d differs from serial analysis", i)
		}
		if !reflect.DeepEqual(projectRecs(reports[i]), projectRecs(want)) {
			t.Errorf("concurrent report %d recommendations differ from serial", i)
		}
	}
}

// TestConcurrentPatternsEqualSerial: concurrent analyses on one engine
// mine on miners lent from its one free list, each grown by whichever
// analysis of another shape used it last. Two rounds of four concurrent
// analyses over 300- and 1,000-patient logs must extract exactly the
// pattern and rule items a fresh engine extracts from each log alone.
func TestConcurrentPatternsEqualSerial(t *testing.T) {
	var logs []*dataset.Log
	for i, patients := range []int{300, 1000, 300, 1000} {
		cfg := synth.SmallConfig()
		cfg.Seed = int64(i + 1)
		cfg.NumPatients, cfg.TargetRecords = patients, 15*patients
		log, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		log.Name = fmt.Sprintf("%s-%d", log.Name, i)
		logs = append(logs, log)
	}
	cfg := seededConfig(1)
	cfg.Recall.Disabled = true

	type items struct{ patterns, rules any }
	want := make([]items, len(logs))
	for i, log := range logs {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := e.Analyze(log)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.PatternItems) == 0 || len(rep.RuleItems) == 0 {
			t.Fatalf("log %s: %d pattern and %d rule items; the comparison needs both", log.Name, len(rep.PatternItems), len(rep.RuleItems))
		}
		want[i] = items{rep.PatternItems, rep.RuleItems}
	}

	shared, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for round := range 2 {
		reports := make([]*Report, len(logs))
		errs := make([]error, len(logs))
		var wg sync.WaitGroup
		for i, log := range logs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reports[i], errs[i] = shared.AnalyzeWith(context.Background(), log, AnalyzeOptions{})
			}()
		}
		wg.Wait()
		for i, rep := range reports {
			if errs[i] != nil {
				t.Fatalf("round %d, analysis %d: %v", round, i, errs[i])
			}
			if got := (items{rep.PatternItems, rep.RuleItems}); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("round %d, log %s: pattern or rule items differ from a fresh serial engine's", round, logs[i].Name)
			}
		}
	}
}

// TestConcurrentAnalysesShareOneBudget: every analysis on an engine and
// on its WithConfig derivations runs on the engine's one CPU budget, so
// four concurrent analyses at Parallelism 1 never run two stages at
// once. The derivation asks for 4 and is held to its parent's 1.
func TestConcurrentAnalysesShareOneBudget(t *testing.T) {
	cfg := seededConfig(1)
	cfg.Recall.Disabled = true
	cfg.Parallelism = 1
	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	derived, err := base.WithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := derived.Config().Parallelism; got != 1 {
		t.Errorf("derived Parallelism = %d, want the parent's 1", got)
	}

	var (
		mu            sync.Mutex
		running, peak int
	)
	count := func(ev StageEvent) {
		mu.Lock()
		defer mu.Unlock()
		if ev.Phase == StageStart {
			running++
			peak = max(peak, running)
		} else {
			running--
		}
	}
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i, e := range []*Engine{base, derived, base, derived} {
		log := seededLog(t, int64(i+1))
		log.Name = fmt.Sprintf("budget-%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = e.AnalyzeWith(context.Background(), log, AnalyzeOptions{Observer: count})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("analysis %d: %v", i, err)
		}
	}
	if peak != 1 {
		t.Errorf("%d stages ran at once across the engine's analyses, want 1", peak)
	}
}

// TestConcurrentAnalysesPersistSharedKDB: concurrent analyses on one
// disk-backed engine each flush the K-DB on completion; the flushes
// serialize, so the store reopens with every log's knowledge.
func TestConcurrentAnalysesPersistSharedKDB(t *testing.T) {
	dir := t.TempDir()
	cfg := seededConfig(1)
	cfg.KDBDir = dir
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	logs := []*dataset.Log{seededLog(t, 1), seededLog(t, 2), seededLog(t, 3)}
	for i, l := range logs {
		l.Name = l.Name + "-" + string(rune('a'+i))
	}
	errs := make(chan error, len(logs))
	for _, log := range logs {
		go func(log *dataset.Log) {
			rep, err := e.AnalyzeContext(context.Background(), log)
			if err == nil && rep.Degraded != nil {
				err = fmt.Errorf("%s degraded: %v", log.Name, rep.Degraded.Reasons)
			}
			errs <- err
		}(log)
	}
	for range logs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := e.KDB().Close(); err != nil {
		t.Fatal(err)
	}
	re, err := New(Config{KDBDir: dir})
	if err != nil {
		t.Fatalf("reopening shared K-DB: %v", err)
	}
	defer re.KDB().Close()
	for _, l := range logs {
		items, err := re.KDB().KnowledgeItems(l.Name, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(items) == 0 {
			t.Errorf("no persisted knowledge items for %s", l.Name)
		}
	}
}
