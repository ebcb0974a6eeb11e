package service

import (
	"time"

	"adahealth/internal/core"
)

// Option tunes one submission. Options are applied at admission time,
// so an invalid combination (e.g. a bad config override) rejects the
// submission immediately instead of failing mid-job.
type Option func(*jobOptions)

type jobOptions struct {
	priority int
	deadline time.Time
	seed     int64
	seedSet  bool
	override *core.Config
	labels   map[string]string
}

// WithPriority sets the dispatch priority: among queued jobs the
// highest priority runs first, ties breaking in submission order.
// The default is 0; negative priorities yield to everything else.
func WithPriority(p int) Option {
	return func(o *jobOptions) { o.priority = p }
}

// WithDeadline bounds the job's total lifetime — queue wait included.
// A job whose deadline expires before or during execution finishes
// failed with context.DeadlineExceeded. The zero time means no
// deadline.
func WithDeadline(t time.Time) Option {
	return func(o *jobOptions) { o.deadline = t }
}

// WithSeed overrides Config.Seed for this job only, leaving every
// other engine parameter at the service's base configuration.
func WithSeed(seed int64) Option {
	return func(o *jobOptions) { o.seed = seed; o.seedSet = true }
}

// WithConfigOverride analyzes this job under cfg instead of the
// service's base configuration. The override is validated at admission
// (core.Config.Validate) and shares the service's knowledge base;
// cfg.KDBDir is ignored. Composes with WithSeed, which takes
// precedence for the seed.
func WithConfigOverride(cfg core.Config) Option {
	return func(o *jobOptions) { o.override = &cfg }
}

// WithLabels attaches caller metadata to the job (copied), surfaced by
// Job.Labels and the daemon's status endpoint.
func WithLabels(labels map[string]string) Option {
	return func(o *jobOptions) {
		if len(labels) == 0 {
			return
		}
		o.labels = make(map[string]string, len(labels))
		for k, v := range labels {
			o.labels[k] = v
		}
	}
}
