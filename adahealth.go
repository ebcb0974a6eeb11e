// Package adahealth is the public API of the ADA-HEALTH reproduction:
// an automated medical data-analysis engine that, given an examination
// log, characterizes it, selects a data transformation, adaptively
// mines growing portions of it, self-configures its clustering
// algorithm, extracts and ranks knowledge items, and recommends viable
// analysis end-goals — reproducing Cerquitelli et al., "Data mining
// for better healthcare: A path towards automated data analysis?"
// (ICDE Workshops 2016).
//
// The primary surface is the job API — analysis as a service, the
// paper's framing of mining as a shared hospital-wide facility. A
// Service owns one engine, a bounded admission queue and a shared
// stage pool; Submit returns immediately with a Job handle that
// exposes live progress:
//
//	svc, _ := adahealth.NewService(adahealth.ServiceConfig{Workers: 4})
//	defer svc.Shutdown(context.Background())
//
//	log, _ := adahealth.GenerateSyntheticLog(adahealth.SmallDataConfig())
//	job, err := svc.Submit(ctx, log,
//		adahealth.WithPriority(5),
//		adahealth.WithDeadline(time.Now().Add(2*time.Minute)))
//	if errors.Is(err, adahealth.ErrQueueFull) { /* shed load or SubmitWait */ }
//
//	go func() {
//		for ev := range job.Events() { fmt.Println(ev.Phase, ev.Stage) }
//	}()
//	report, _ := job.Wait(ctx)
//	fmt.Println(report.Sweep.BestK)
//
// Submissions are admission-controlled: a full queue fast-rejects with
// ErrQueueFull (Service.SubmitWait blocks instead), higher-priority
// jobs dispatch first, per-job deadlines cover queue wait, and bad
// configurations are rejected at Submit time. cmd/adahealthd serves
// the same API over HTTP JSON.
//
// The one-shot path remains the simple case — identical results,
// no service in between:
//
//	log, _ := adahealth.GenerateSyntheticLog(adahealth.SmallDataConfig())
//	engine, _ := adahealth.NewEngine(adahealth.DefaultConfig())
//	report, _ := engine.Analyze(log)
//	fmt.Println(report.Sweep.BestK)
//
// The K-optimization sweep is warm-started (each K seeded from the
// previous K's converged centroids) and clusters with Lloyd's K-means,
// which runs a sparse-aware parallel scan over the CSR view of the VSM
// matrix and a dense scan on dense data, with Sculley mini-batch
// available (approximate, deterministic) for very large logs. Pick a
// kernel explicitly via the per-job config override
// ("Sweep":{"Cluster":{"Algorithm":"dense-lloyd"}}), the -algorithm
// CLI flag, or cluster.Options.Algorithm; see the internal/cluster
// package doc for the algorithm table.
//
// Either way the pipeline executes as a concurrent stage DAG:
// independent stages (pattern mining, the K sweep, demand extraction,
// ...) overlap on a bounded pool of CPU slots that the sweep and
// partial mining also fan their units out over, Engine.AnalyzeContext threads
// cancellation through every compute kernel, Engine.AnalyzeMany
// batches several logs over one shared pool, and Report.Stages carries
// per-stage wall-time/allocation traces (also persisted in the K-DB).
//
// With Config.KDBDir set, the knowledge base is a durable storage
// engine: per-dataset sharded collections, a group-committed
// write-ahead log (a killed process recovers every acknowledged write
// on reopen), and snapshot compaction. Accumulated knowledge closes
// the paper's self-learning loop — the pipeline's recall stage
// retrieves prior results of statistically similar datasets
// (KDB.SimilarDatasets) and warm-starts the K sweep from them;
// Report.Recall says what was reused.
package adahealth

import (
	"adahealth/internal/core"
	"adahealth/internal/dataset"
	"adahealth/internal/endgoal"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
	"adahealth/internal/ranking"
	"adahealth/internal/service"
	"adahealth/internal/stats"
	"adahealth/internal/synth"
)

// Re-exported core types. The internal packages stay authoritative;
// these aliases are the supported public surface.
type (
	// Engine runs the automated analysis pipeline.
	Engine = core.Engine
	// Config configures an Engine.
	Config = core.Config
	// Report is the outcome of one automated analysis.
	Report = core.Report

	// Log is a medical examination log (patients, exam types, records).
	Log = dataset.Log
	// Patient is one anonymized patient.
	Patient = dataset.Patient
	// ExamType is one kind of examination.
	ExamType = dataset.ExamType
	// Record is one examination event.
	Record = dataset.Record

	// DataConfig controls the synthetic diabetic-log generator.
	DataConfig = synth.Config

	// KDB is the knowledge database (the paper's six collections),
	// backed by a sharded, WAL-durable document store when Config.
	// KDBDir is set.
	KDB = kdb.KDB
	// KDBQuery is a declarative filter/sort/limit lookup over a K-DB
	// collection.
	KDBQuery = kdb.Query
	// DatasetSimilarity is one hit of a descriptor-similarity lookup
	// (KDB.SimilarDatasets — the recall stage's retrieval path).
	DatasetSimilarity = kdb.DatasetSimilarity
	// Feedback is one expert judgement stored in the K-DB.
	Feedback = kdb.Feedback
	// StageTrace is the recorded execution of one pipeline stage.
	StageTrace = kdb.StageTrace

	// RecallConfig tunes the knowledge-recall stage (Config.Recall):
	// prior K-DB knowledge of similar datasets warm-starts the sweep.
	RecallConfig = core.RecallConfig
	// RecallOutcome reports what the recall stage retrieved and how it
	// warm-started the analysis (Report.Recall).
	RecallOutcome = core.RecallOutcome

	// KnowledgeItem is one unit of extracted knowledge.
	KnowledgeItem = knowledge.Item
	// Interest is a degree of interestingness {high, medium, low}.
	Interest = knowledge.Interest

	// Descriptor is the statistical characterization of a log.
	Descriptor = stats.Descriptor

	// Recommendation is an end-goal verdict for a dataset.
	Recommendation = endgoal.Recommendation

	// Ranker orders knowledge items and adapts to feedback.
	Ranker = ranking.Ranker
	// NavigationSession pages through ranked knowledge interactively.
	NavigationSession = ranking.Session

	// Service is the asynchronous analysis service: one shared engine,
	// a bounded admission queue, priority dispatch.
	Service = service.Service
	// ServiceConfig configures a Service.
	ServiceConfig = service.Config
	// Job is the handle of one submitted analysis.
	Job = service.Job
	// JobStatus is a job's lifecycle position
	// (queued/running/done/failed/cancelled).
	JobStatus = service.Status
	// StageEvent is one live progress event of a job: a lifecycle
	// transition or a per-stage start/finish.
	StageEvent = service.StageEvent
	// SubmitOption tunes one submission (WithPriority, WithDeadline,
	// WithSeed, WithConfigOverride, WithLabels).
	SubmitOption = service.Option
	// ServiceStats is a point-in-time queue/worker gauge snapshot.
	ServiceStats = service.Stats
	// TraceDump is the stage-schedule JSON encoding shared by
	// `adahealth -trace` and the daemon's status endpoint.
	TraceDump = service.TraceDump
)

// Job lifecycle statuses.
const (
	JobQueued    = service.StatusQueued
	JobRunning   = service.StatusRunning
	JobDone      = service.StatusDone
	JobFailed    = service.StatusFailed
	JobCancelled = service.StatusCancelled
)

// Admission-control sentinels.
var (
	// ErrQueueFull is Submit's fast reject when the admission queue is
	// at capacity (HTTP 429 on the daemon).
	ErrQueueFull = service.ErrQueueFull
	// ErrServiceClosed rejects submissions after Shutdown.
	ErrServiceClosed = service.ErrClosed
)

// Submission options.
var (
	// WithPriority dispatches higher-priority jobs first.
	WithPriority = service.WithPriority
	// WithDeadline bounds a job's lifetime, queue wait included.
	WithDeadline = service.WithDeadline
	// WithSeed overrides the analysis seed for one job.
	WithSeed = service.WithSeed
	// WithConfigOverride analyzes one job under a different Config
	// (validated at admission, shared K-DB).
	WithConfigOverride = service.WithConfigOverride
	// WithLabels attaches caller metadata to a job.
	WithLabels = service.WithLabels
)

// NewService starts an asynchronous analysis service. The zero
// ServiceConfig is a working default: paper-faithful engine, in-memory
// K-DB, 4 worker slots, a 64-deep admission queue.
func NewService(cfg ServiceConfig) (*Service, error) { return service.New(cfg) }

// Interest degrees.
const (
	InterestHigh    = knowledge.InterestHigh
	InterestMedium  = knowledge.InterestMedium
	InterestLow     = knowledge.InterestLow
	InterestUnknown = knowledge.InterestUnknown
)

// NewEngine builds an analysis engine.
func NewEngine(cfg Config) (*Engine, error) { return core.New(cfg) }

// DefaultConfig returns the paper-faithful engine configuration
// (in-memory K-DB; set KDBDir for persistence).
func DefaultConfig() Config { return Config{} }

// GenerateSyntheticLog builds a synthetic diabetic examination log
// (the substitution for the paper's proprietary dataset; see
// DESIGN.md).
func GenerateSyntheticLog(cfg DataConfig) (*Log, error) { return synth.Generate(cfg) }

// PaperDataConfig reproduces the published dataset shape: 6,380
// patients, 95,788 records, 159 exam types, ages 4-95, one year.
func PaperDataConfig() DataConfig { return synth.DefaultConfig() }

// SmallDataConfig is a fast structurally-identical dataset for
// experimentation and tests.
func SmallDataConfig() DataConfig { return synth.SmallConfig() }

// Characterize computes the statistical descriptor of a log without
// running the full pipeline.
func Characterize(l *Log) Descriptor { return stats.Characterize(l) }

// NewRanker returns a fresh feedback-adaptive ranker.
func NewRanker() *Ranker { return ranking.NewRanker() }

// NewNavigationSession starts an interactive navigation over items.
func NewNavigationSession(items []KnowledgeItem, r *Ranker, pageSize int) *NavigationSession {
	return ranking.NewSession(items, r, pageSize)
}
