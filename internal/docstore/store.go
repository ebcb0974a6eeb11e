package docstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"adahealth/internal/faultfs"
)

// DefaultMaxWALBytes is the log-size budget beyond which Flush
// compacts (rewrites snapshots and resets the WAL).
const DefaultMaxWALBytes = 4 << 20

// ErrStoreBroken marks a store whose WAL hit a commit failure: the
// in-memory state is ahead of the durable log, so no later write is
// acknowledged after the unacknowledged one (every write and Flush
// fails wrapping this error, and compaction is refused). Reads still
// serve the in-memory state, which may include the failed mutations;
// callers that need durable-only reads must reopen the store, which
// recovers exactly the committed prefix.
var ErrStoreBroken = errors.New("docstore: store broken by WAL commit failure")

// Options configures OpenOptions.
type Options struct {
	// Dir is the persistence directory ("" = memory only).
	Dir string
	// NoSync skips the per-commit fsync: mutations are still written
	// (and survive a process kill once the OS flushes), but a machine
	// crash can lose the tail. Off by default.
	NoSync bool
	// MaxWALBytes overrides the compaction budget (<= 0 selects
	// DefaultMaxWALBytes).
	MaxWALBytes int64
	// FS overrides the filesystem every disk operation goes through
	// (nil = the real OS). Fault-injection tests pass a
	// faultfs.Injector here.
	FS faultfs.FS
}

// Store is a set of named collections, optionally persisted to a
// directory as per-collection snapshot files plus a shared WAL.
type Store struct {
	dir         string // "" = memory only
	fs          faultfs.FS
	maxWALBytes int64

	// writeGate serializes mutations against compaction: every Batch
	// holds it shared from Begin to Commit — its whole apply+log+wait
	// span — so when Compact holds it exclusively no record is pending
	// in the WAL and the snapshot is a consistent cut.
	writeGate sync.RWMutex

	wal *wal // nil for memory-only stores

	// epoch is the compaction generation (see ReplPosition): it
	// increments every time a non-empty WAL is folded into snapshots
	// and reset, and persists in repl.meta so a restarted leader and
	// its followers agree on stream positions across restarts.
	epoch atomic.Int64

	mu          sync.RWMutex
	collections map[string]*Collection
}

// Open creates or loads a store. An empty dir gives a purely in-memory
// store; otherwise any snapshot files under dir are loaded and the WAL
// tail is replayed over them (see the package comment).
func Open(dir string) (*Store, error) { return OpenOptions(Options{Dir: dir}) }

// OpenOptions is Open with explicit durability options.
func OpenOptions(o Options) (*Store, error) {
	s := &Store{
		dir:         o.Dir,
		fs:          o.FS,
		maxWALBytes: o.MaxWALBytes,
		collections: map[string]*Collection{},
	}
	if s.fs == nil {
		s.fs = faultfs.OS()
	}
	if s.maxWALBytes <= 0 {
		s.maxWALBytes = DefaultMaxWALBytes
	}
	if o.Dir == "" {
		return s, nil
	}
	if err := s.fs.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("docstore: creating %s: %w", o.Dir, err)
	}
	if ep, ok := readReplMeta(s.fs, o.Dir); ok {
		s.epoch.Store(ep)
	}
	entries, err := s.fs.ReadDir(o.Dir)
	if err != nil {
		return nil, fmt.Errorf("docstore: reading %s: %w", o.Dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		if err := s.loadSnapshot(strings.TrimSuffix(name, ".json")); err != nil {
			return nil, err
		}
	}
	// Replay the WAL tail over the snapshots. Recovery is
	// single-threaded, so records apply without taking shard locks.
	w, err := openWAL(s.fs, filepath.Join(o.Dir, "wal.log"), !o.NoSync, s.applyRecord)
	if err != nil {
		return nil, err
	}
	s.wal = w
	return s, nil
}

// applyRecord folds one replayed WAL record into the in-memory state.
func (s *Store) applyRecord(rec walRecord) error {
	if rec.Collection == "" || rec.ID == "" {
		return fmt.Errorf("docstore: WAL record without collection/id")
	}
	c := s.Collection(rec.Collection)
	switch rec.Op {
	case opInsert:
		c.applyInsert(rec)
	case opUpdate:
		c.applyUpdate(rec)
	case opDelete:
		c.applyDelete(rec)
	default:
		return fmt.Errorf("docstore: unknown WAL op %q", rec.Op)
	}
	return nil
}

// Collection returns the named collection, creating it if needed.
func (s *Store) Collection(name string) *Collection {
	s.mu.RLock()
	c, ok := s.collections[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.collections[name]; ok {
		return c
	}
	c = newCollection(s, name)
	s.collections[name] = c
	return c
}

// CollectionNames lists existing collections in sorted order.
func (s *Store) CollectionNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.collections))
	for n := range s.collections {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WALSize reports the bytes appended to the WAL since the last
// compaction (0 for memory-only stores) — an observability gauge and
// the Flush compaction trigger.
func (s *Store) WALSize() int64 {
	if s.wal == nil {
		return 0
	}
	return s.wal.size.Load()
}

// Broken returns the latched WAL commit failure poisoning this store
// (always wrapping ErrStoreBroken), or nil while the store is healthy.
// A broken store refuses every later write and must be reopened to
// recover to the last durable commit.
func (s *Store) Broken() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.failed()
}

// Flush makes all acknowledged mutations durable and compacts the
// store when the WAL has outgrown its budget. Acknowledged writes are
// already on the log (fsynced unless NoSync), so for a disk-backed
// store this is cheap unless compaction triggers; it is a no-op for
// in-memory stores.
func (s *Store) Flush() error {
	if s.wal == nil {
		return nil
	}
	t0 := time.Now()
	err := s.flush()
	flushSeconds.ObserveSince(t0)
	flushTotal.With(outcomeOf(err)).Inc()
	return err
}

func (s *Store) flush() error {
	if err := s.wal.flushNow(); err != nil {
		return err
	}
	if s.wal.size.Load() <= s.maxWALBytes {
		return nil
	}
	return s.Compact()
}

// Compact rewrites every collection's snapshot file and resets the
// WAL. Writers are held off for the duration; readers proceed.
func (s *Store) Compact() error {
	if s.wal == nil {
		return nil
	}
	s.writeGate.Lock()
	defer s.writeGate.Unlock()

	// A WAL that failed to commit leaves memory ahead of the log;
	// snapshotting that state would make acknowledged-as-failed writes
	// durable. Refuse, so reopening recovers the last durable commit.
	if err := s.wal.failed(); err != nil {
		compactionsTotal.With("error").Inc()
		return fmt.Errorf("docstore: refusing to compact after WAL failure: %w", err)
	}
	// An empty log means the snapshots already hold the epoch-start
	// state exactly: rewriting them would only bump the epoch and force
	// every follower through a pointless re-bootstrap.
	if s.wal.size.Load() == 0 {
		return nil
	}
	t0 := time.Now()
	err := s.compactLocked()
	compactionSeconds.ObserveSince(t0)
	compactionsTotal.With(outcomeOf(err)).Inc()
	return err
}

// compactLocked is Compact's body, run under the exclusive writeGate
// with a healthy, non-empty WAL.
func (s *Store) compactLocked() error {
	s.mu.RLock()
	colls := make([]*Collection, 0, len(s.collections))
	for _, c := range s.collections {
		colls = append(colls, c)
	}
	s.mu.RUnlock()

	for _, c := range colls {
		if err := s.writeSnapshot(c); err != nil {
			return fmt.Errorf("docstore: snapshotting %s: %w", c.name, err)
		}
	}
	// The new epoch is durable alongside the snapshots it describes: a
	// follower positioned in the old epoch must find the bump and
	// re-bootstrap rather than misread post-reset frames as a
	// continuation of the old stream.
	next := s.epoch.Load() + 1
	if err := writeReplMeta(s.fs, s.dir, next); err != nil {
		return fmt.Errorf("docstore: writing replication meta: %w", err)
	}
	// The snapshot and meta renames must be durable in the directory
	// BEFORE the WAL resets: on a power loss between the two, an
	// un-fsynced rename could roll back to the old snapshot while the
	// truncated (fsynced) log no longer holds the commits since —
	// losing acknowledged writes. One directory fsync orders them.
	if s.wal.sync {
		if err := syncDir(s.fs, s.dir); err != nil {
			return fmt.Errorf("docstore: syncing snapshot directory: %w", err)
		}
	}
	// The snapshots now hold everything the log held (no writer is in
	// flight); replay over them is idempotent, so a crash before this
	// reset re-applies harmlessly.
	if err := s.wal.reset(); err != nil {
		return err
	}
	s.epoch.Store(next)
	return nil
}

// syncDir fsyncs a directory so renamed snapshot files are durable.
func syncDir(fsys faultfs.FS, dir string) error {
	d, err := fsys.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close flushes, compacts, and releases the WAL. The store must not be
// used afterwards (writes will fail). Even when the final compaction
// is refused (a latched WAL failure), the committer goroutine and log
// file are always released.
func (s *Store) Close() error {
	if s.wal == nil {
		return nil
	}
	cerr := s.Compact()
	if err := s.wal.close(); err != nil && cerr == nil {
		cerr = err
	}
	return cerr
}

// snapshotFile is the on-disk snapshot of one collection. Docs are in
// insertion order; Orders carries their stamps so scan order survives
// compaction (a legacy snapshot without stamps loads in file order).
type snapshotFile struct {
	IDSeq    int64      `json:"id_seq"`
	OrderSeq int64      `json:"order_seq"`
	Docs     []Document `json:"docs"`
	Orders   []int64    `json:"orders,omitempty"`

	// Seq is the pre-WAL snapshot format's ID counter, read for
	// backward compatibility and never written.
	Seq int64 `json:"seq,omitempty"`
}

func (s *Store) writeSnapshot(c *Collection) error {
	entries := c.collect(nil)
	sort.Slice(entries, func(i, j int) bool { return entries[i].order < entries[j].order })
	snap := snapshotFile{
		IDSeq:    c.idSeq.Load(),
		OrderSeq: c.orderSeq.Load(),
		Docs:     make([]Document, len(entries)),
		Orders:   make([]int64, len(entries)),
	}
	for i, e := range entries {
		snap.Docs[i] = e.doc
		snap.Orders[i] = e.order
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, c.name+".json.tmp")
	f, err := s.fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(raw); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		s.fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	if err := s.fs.Rename(tmp, filepath.Join(s.dir, c.name+".json")); err != nil {
		s.fs.Remove(tmp)
		return err
	}
	return nil
}

func (s *Store) loadSnapshot(name string) error {
	raw, err := s.fs.ReadFile(filepath.Join(s.dir, name+".json"))
	if err != nil {
		return fmt.Errorf("docstore: loading collection %s: %w", name, err)
	}
	var snap snapshotFile
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("docstore: decoding collection %s: %w", name, err)
	}
	c := newCollection(s, name)
	if snap.IDSeq == 0 && snap.Seq != 0 {
		snap.IDSeq = snap.Seq // legacy format
	}
	c.idSeq.Store(snap.IDSeq)
	var maxOrder int64
	for i, d := range snap.Docs {
		id := d.ID()
		if id == "" {
			return fmt.Errorf("docstore: collection %s holds a document without _id", name)
		}
		order := int64(i + 1)
		if i < len(snap.Orders) {
			order = snap.Orders[i]
		}
		sh := c.shards[c.shardIndex(d)]
		sh.docs[id] = &entry{doc: d, order: order}
		if order > maxOrder {
			maxOrder = order
		}
	}
	if snap.OrderSeq > maxOrder {
		maxOrder = snap.OrderSeq
	}
	c.orderSeq.Store(maxOrder)
	s.collections[name] = c
	return nil
}
