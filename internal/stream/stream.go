// Package stream is the live-dataset subsystem: it accepts visit
// batches appended to a registered dataset and keeps the accumulated
// log's vector-space model and drift gauge current without re-running
// the full batch pipeline per append.
//
// # One exact live model
//
// A live dataset is its log, its VSM and its drift gauge. Every
// accepted append is checked by vsm.Live.Check, durably recorded,
// appended to the dataset's one log, which vsm.Live owns, and the
// vector-space model follows it in place (property-tested equal to
// vsm.Build on the log at every append boundary). The drift
// descriptor is stats.Characterize of the same log. Nothing here is
// approximate: the live state is exactly what vsm.Build and
// stats.Characterize compute on the accumulated log.
//
// The live layer does not cluster. When the descriptor drifts past
// Config.DriftThreshold from its baseline (see below), a snapshot
// of the accumulated log is submitted as an ordinary service job. Its
// Report is bit-for-bit the one core.Engine produces for the same log,
// and its only warm start is the pipeline's recall stage, like any
// other job's. At the defaults that stage never recalls the resweep's
// own last analysis: drift >= 0.15 means similarity <= 0.85 to the
// baseline, below recall's 0.9 floor (core.RecallConfig.MinSimilarity).
//
// Drift is measured on the same descriptor feature vector the K-DB's
// recall stage ranks dataset similarity with (kdb.DescriptorSimilarity,
// scale-free): drift = 1 − similarity(baseline, current), so 0 means
// statistically indistinguishable from the baseline and the
// default threshold 0.15 means the average descriptor feature moved
// ~15% relative.
//
// # Durability and the baseline
//
// An accepted append is durably recorded in the K-DB's live_appends
// collection, in one WAL commit, before it is applied and acknowledged;
// the batches are a live dataset's only history. A registration
// applies its batch first and then commits the log's descriptor and the
// revision-1 batch together (kdb.RegisterLiveDataset); if that fails,
// the dataset is discarded. A restarted daemon finds each live dataset
// by its batches and applies them in revision order as one append.
//
// The baseline is not stored: it is the newest descriptor under the
// dataset's name (kdb.LatestDescriptor), taken at boot, at
// registration and at the end of every resweep, succeeded or failed.
// An analysis stores its descriptor only when it completes, so a failed
// resweep leaves the baseline where it was. One name is one dataset: a
// batch job under a live dataset's name is an analysis of it, and
// becomes the baseline at the next resweep end or restart. A dataset
// with no stored descriptor (registered by an older build, whose
// live_datasets control record nothing reads) takes its log's own.
package stream

import (
	"errors"
	"fmt"
	"sync"

	"adahealth/internal/kdb"
	"adahealth/internal/service"
	"adahealth/internal/stats"
	"adahealth/internal/vsm"
)

var (
	// ErrExists rejects registering a dataset name twice (HTTP 409).
	ErrExists = errors.New("stream: dataset already registered")
	// ErrUnknown reports an unregistered dataset (HTTP 404).
	ErrUnknown = errors.New("stream: unknown dataset")
	// ErrDurability marks an append the K-DB could not durably record:
	// nothing was applied, the client must retry (HTTP 503).
	ErrDurability = errors.New("stream: append not durable")
)

// Config configures a Manager.
type Config struct {
	// Service is the analysis service drift-triggered full re-analyses
	// are submitted to (required; its engine also supplies the K-DB
	// and the VSM options the live matrices maintain).
	Service *service.Service
	// DriftThreshold is the descriptor drift (1 − similarity on the
	// kdb.DescriptorSimilarity feature vector) at which a full
	// re-analysis is scheduled; <= 0 defaults to 0.15.
	DriftThreshold float64
}

func (c Config) withDefaults() Config {
	if c.DriftThreshold <= 0 {
		c.DriftThreshold = 0.15
	}
	return c
}

// Manager owns every live dataset of one daemon: registration, lookup,
// and crash recovery from the K-DB's live collections.
type Manager struct {
	svc *service.Service
	kdb *kdb.KDB
	cfg Config

	mu       sync.Mutex
	datasets map[string]*Dataset

	// watchers counts the goroutines folding drift-triggered
	// re-analyses back into their datasets (see Close).
	watchers sync.WaitGroup
}

// Close waits until every drift-triggered re-analysis the manager
// watches has folded its outcome back into its dataset, so no
// goroutine of the manager outlives it. It does not stop the service:
// shut that down first to cut running re-analyses short.
func (m *Manager) Close() { m.watchers.Wait() }

// NewManager builds a manager over cfg.Service and resumes every live
// dataset persisted in the service's K-DB (see recover).
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Service == nil {
		return nil, errors.New("stream: Config.Service is required")
	}
	m := &Manager{
		svc:      cfg.Service,
		kdb:      cfg.Service.Engine().KDB(),
		cfg:      cfg.withDefaults(),
		datasets: make(map[string]*Dataset),
	}
	if err := m.recover(); err != nil {
		return nil, err
	}
	return m, nil
}

// recover rebuilds every live dataset that has a batch in the K-DB.
// Its batches, concatenated in revision order, are one Live.Append,
// and its revision is the last batch's; its baseline and drift are
// derived as at runtime. LastAnalysis stays empty: a job ID names a job
// of the process that ran it.
func (m *Manager) recover() error {
	names, err := m.kdb.LiveDatasets()
	if err != nil {
		return fmt.Errorf("stream: reading live datasets: %w", err)
	}
	for _, name := range names {
		batches, err := m.kdb.LiveBatches(name)
		if err != nil {
			return fmt.Errorf("stream: reading batches of %q: %w", name, err)
		}
		var all kdb.LiveBatch
		for _, b := range batches {
			all.Exams = append(all.Exams, b.Exams...)
			all.Patients = append(all.Patients, b.Patients...)
			all.Records = append(all.Records, b.Records...)
			all.Revision = b.Revision
		}
		d := m.newDataset(name)
		if err := d.live.Append(all.Exams, all.Patients, all.Records); err != nil {
			return fmt.Errorf("stream: replaying %s@1..%d: %w", name, all.Revision, err)
		}
		d.revision = all.Revision
		d.resetBaselineLocked(stats.Characterize(d.live.Log()))
		m.datasets[name] = d
	}
	return nil
}

// newDataset builds an empty in-memory live dataset (not yet
// registered in the map or the K-DB).
func (m *Manager) newDataset(name string) *Dataset {
	live := vsm.NewLive(m.svc.Engine().Config().VSM)
	live.Log().Name = name
	return &Dataset{mgr: m, name: name, live: live, events: service.NewFeed[Event](eventHistory)}
}

// Get resolves a registered live dataset.
func (m *Manager) Get(name string) (*Dataset, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.datasets[name]
	return d, ok
}

// Datasets lists every registered live dataset's status.
func (m *Manager) Datasets() []DatasetStatus {
	m.mu.Lock()
	ds := make([]*Dataset, 0, len(m.datasets))
	for _, d := range m.datasets {
		ds = append(ds, d)
	}
	m.mu.Unlock()
	out := make([]DatasetStatus, 0, len(ds))
	for _, d := range ds {
		out = append(out, d.Status())
	}
	return out
}

// Register creates a live dataset named name seeded with the given
// initial log (which may be empty of records). The initial contents
// and their descriptor are durably recorded, in one commit, before
// Register returns; if that fails the dataset is discarded.
// Re-registering a name fails with ErrExists.
func (m *Manager) Register(name string, exams []Exam, patients []Patient, records []Record) (DatasetStatus, error) {
	if name == "" {
		return DatasetStatus{}, errors.New("stream: empty dataset name")
	}
	m.mu.Lock()
	if _, dup := m.datasets[name]; dup {
		m.mu.Unlock()
		return DatasetStatus{}, fmt.Errorf("%w: %q", ErrExists, name)
	}
	// Reserve the name while the initial batch persists; concurrent
	// registrations of the same name must not interleave. d is locked
	// before it is published, so an append that finds it waits for
	// the registration's outcome (and is refused if it failed).
	d := m.newDataset(name)
	d.mu.Lock()
	defer d.mu.Unlock()
	m.datasets[name] = d
	m.mu.Unlock()

	st, err := d.appendLocked(exams, patients, records)
	if err != nil {
		m.mu.Lock()
		delete(m.datasets, name)
		m.mu.Unlock()
		return DatasetStatus{}, err
	}
	return st, nil
}
