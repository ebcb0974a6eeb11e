package kdb

import (
	"errors"
	"sync"
	"time"

	"adahealth/internal/docstore"
)

// Mode is the K-DB circuit breaker's position.
type Mode string

const (
	// ModeHealthy: writes, flushes and reads all proceed.
	ModeHealthy Mode = "healthy"
	// ModeReadOnly: repeated flush/compaction failures tripped the
	// breaker; writes are refused (and counted as dropped) while reads
	// serve, until a flush after the cooldown succeeds.
	ModeReadOnly Mode = "read-only"
	// ModeOffline: the store is broken (docstore.ErrStoreBroken); writes
	// and reads are refused until the K-DB is reopened.
	ModeOffline Mode = "offline"
	// ModeFollower: the K-DB fronts a replication follower's store
	// (kdb.Follower): reads serve, writes and flushes are refused. It is
	// a configuration, never entered or left at runtime.
	ModeFollower Mode = "follower"
)

var (
	// ErrReadOnly rejects a write while the breaker holds the store
	// read-only.
	ErrReadOnly = errors.New("kdb: store is read-only (circuit breaker open)")
	// ErrOffline rejects an operation, read or write, while the store
	// is offline (broken).
	ErrOffline = errors.New("kdb: store is offline (broken)")
	// ErrFollower rejects writes and flushes on a read-only follower
	// K-DB (kdb.Follower): mutations belong on the leader.
	ErrFollower = errors.New("kdb: store is a replication follower (read-only)")
)

// Health is a snapshot of the breaker for health endpoints and gauges.
type Health struct {
	// Mode is the breaker position.
	Mode Mode `json:"mode"`
	// Reason explains a non-healthy mode (last failure message).
	Reason string `json:"reason,omitempty"`
	// ConsecutiveFlushFailures counts flush failures since the last
	// success (resets on success).
	ConsecutiveFlushFailures int `json:"consecutive_flush_failures,omitempty"`
	// Trips counts read-only trips over the handle's lifetime.
	Trips int `json:"trips,omitempty"`
	// DroppedWrites counts writes refused while tripped.
	DroppedWrites int64 `json:"dropped_writes,omitempty"`
}

// breakerThreshold is how many consecutive flush failures trip the
// breaker into read-only.
const breakerThreshold = 3

// breakerCooldown is how long a read-only breaker waits before letting
// one flush through as a half-open probe.
const breakerCooldown = 2 * time.Second

// breaker guards the K-DB against a failing disk. Two trip paths:
// a broken store (WAL commit failure) goes straight to offline, while
// repeated flush/compaction failures (snapshot faults, full disk) trip
// read-only with a half-open recovery probe.
type breaker struct {
	mu        sync.Mutex
	mode      Mode
	reason    string
	consec    int
	trips     int
	dropped   int64
	retryAt   time.Time
	threshold int           // test override; 0 = breakerThreshold
	cooldown  time.Duration // test override; 0 = breakerCooldown
	now       func() time.Time
}

func newBreaker() *breaker {
	setModeGauge(ModeHealthy)
	return &breaker{mode: ModeHealthy, now: time.Now}
}

func (b *breaker) limits() (int, time.Duration) {
	th, cd := b.threshold, b.cooldown
	if th <= 0 {
		th = breakerThreshold
	}
	if cd <= 0 {
		cd = breakerCooldown
	}
	return th, cd
}

// write runs one mutation behind the breaker: a refusal counts as a
// dropped write, and a broken store goes offline at once (no threshold
// — brokenness is not transient).
func (b *breaker) write(mutate func() error) error {
	b.mu.Lock()
	mode := b.mode
	if mode == ModeOffline || mode == ModeReadOnly {
		b.dropped++
		droppedWritesTotal.Inc()
	}
	b.mu.Unlock()
	switch mode {
	case ModeOffline:
		return ErrOffline
	case ModeReadOnly:
		return ErrReadOnly
	case ModeFollower:
		return ErrFollower
	}
	err := mutate()
	if errors.Is(err, docstore.ErrStoreBroken) {
		b.tripOffline(err)
	}
	return err
}

// beforeRead gates a read: only an offline store refuses reads.
func (b *breaker) beforeRead() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.mode == ModeOffline {
		return ErrOffline
	}
	return nil
}

// beforeFlush gates a flush. Read-only mode lets one flush through as
// a half-open probe once the cooldown elapsed.
func (b *breaker) beforeFlush() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.mode {
	case ModeOffline:
		return ErrOffline
	case ModeFollower:
		return ErrFollower
	case ModeReadOnly:
		if b.now().Before(b.retryAt) {
			return ErrReadOnly
		}
		// Half-open: let this flush probe the disk; push the next
		// probe out so concurrent flushes don't stampede.
		_, cd := b.limits()
		b.retryAt = b.now().Add(cd)
		return nil
	}
	return nil
}

// afterFlush observes a flush's outcome: success closes the breaker,
// a broken store goes offline, other failures count toward the
// read-only threshold.
func (b *breaker) afterFlush(err error) {
	flushesTotal.With(flushOutcome(err)).Inc()
	if err != nil && errors.Is(err, docstore.ErrStoreBroken) {
		b.tripOffline(err)
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.mode == ModeOffline || b.mode == ModeFollower {
		return
	}
	if err == nil {
		b.consec = 0
		if b.mode == ModeReadOnly {
			b.mode = ModeHealthy
			b.reason = ""
			setModeGauge(ModeHealthy)
		}
		return
	}
	b.consec++
	b.reason = err.Error()
	th, cd := b.limits()
	if b.mode == ModeHealthy && b.consec >= th {
		b.mode = ModeReadOnly
		b.trips++
		b.retryAt = b.now().Add(cd)
		breakerTripsTotal.Inc()
		setModeGauge(ModeReadOnly)
	}
}

func (b *breaker) tripOffline(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.mode == ModeOffline {
		return
	}
	b.mode = ModeOffline
	b.reason = err.Error()
	setModeGauge(ModeOffline)
}

func (b *breaker) health() Health {
	b.mu.Lock()
	defer b.mu.Unlock()
	return Health{
		Mode:                     b.mode,
		Reason:                   b.reason,
		ConsecutiveFlushFailures: b.consec,
		Trips:                    b.trips,
		DroppedWrites:            b.dropped,
	}
}

// Health reports the K-DB's breaker state — the health gauge the
// service's /healthz endpoint surfaces.
func (k *KDB) Health() Health { return k.br.health() }
