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

// ErrStoreBroken marks a store whose WAL hit a commit failure: every
// later write and Flush fails wrapping it, and compaction is refused.
// Reads still serve the in-memory state, failed mutations included;
// reopening recovers exactly the committed prefix.
var ErrStoreBroken = errors.New("docstore: store broken by WAL commit failure")

// Options configures OpenOptions.
type Options struct {
	// Dir is the persistence directory ("" = memory only).
	Dir string
	// NoSync skips the per-commit fsync: a process kill loses nothing
	// once the OS flushes, a machine crash can lose the tail.
	NoSync bool
	// MaxWALBytes overrides the compaction budget (<= 0 selects
	// DefaultMaxWALBytes).
	MaxWALBytes int64
	// FS overrides the filesystem (nil = the real OS); fault-injection
	// tests pass a faultfs.Injector.
	FS faultfs.FS
}

// Store is a set of named collections, optionally persisted to a
// directory as per-collection snapshot files plus a shared WAL.
type Store struct {
	dir         string // "" = memory only
	fs          faultfs.FS
	maxWALBytes int64

	// writeGate serializes mutations against compaction: every Batch
	// holds it shared from Begin to Commit, so when Compact holds it
	// exclusively the snapshot is a consistent cut.
	writeGate sync.RWMutex

	wal *wal // nil for memory-only stores

	// epoch is the compaction generation (see ReplPosition), persisted
	// in repl.meta so stream positions survive restarts.
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
	files, err := readSnapshots(s.fs, o.Dir)
	if err != nil {
		return nil, err
	}
	for coll, raw := range files {
		snap, err := decodeSnapshot(coll, raw)
		if err != nil {
			return nil, err
		}
		s.Collection(coll).load(snap)
	}
	// Replay the WAL tail over the snapshots, through the same apply a
	// replica runs on shipped frames.
	w, err := openWAL(s.fs, filepath.Join(o.Dir, "wal.log"), !o.NoSync, s.applyRecord)
	if err != nil {
		return nil, err
	}
	s.wal = w
	return s, nil
}

// applyRecord folds one replayed or replicated WAL record into the
// in-memory state.
func (s *Store) applyRecord(rec walRecord) error {
	if rec.Collection == "" || rec.ID == "" {
		return fmt.Errorf("docstore: WAL record without collection/id")
	}
	return s.Collection(rec.Collection).apply(rec)
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
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("docstore: syncing snapshot directory: %w", err)
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

// syncDir fsyncs the store's directory, unless NoSync, so renamed
// snapshot files are durable.
func (s *Store) syncDir() error {
	if !s.wal.sync {
		return nil
	}
	d, err := s.fs.Open(s.dir)
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
// is refused (a latched WAL failure), the log file is always
// released.
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
// insertion order, each the stored bytes; Orders carries their stamps
// so scan order survives compaction (a legacy snapshot without stamps
// loads in file order).
type snapshotFile struct {
	IDSeq    int64             `json:"id_seq"`
	OrderSeq int64             `json:"order_seq"`
	Docs     []json.RawMessage `json:"docs"`
	Orders   []int64           `json:"orders,omitempty"`

	// Seq is the pre-WAL snapshot format's ID counter, read for
	// backward compatibility and never written.
	Seq int64 `json:"seq,omitempty"`
}

// readSnapshots reads every snapshot file in dir, keyed by collection.
func readSnapshots(fsys faultfs.FS, dir string) (map[string][]byte, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("docstore: reading %s: %w", dir, err)
	}
	files := map[string][]byte{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		raw, err := fsys.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("docstore: reading snapshot %s: %w", name, err)
		}
		files[strings.TrimSuffix(name, ".json")] = raw
	}
	return files, nil
}

// decodeSnapshot parses one collection's snapshot file, reading the
// legacy ID counter and rejecting a document that is not a JSON object
// or has no _id.
func decodeSnapshot(name string, raw []byte) (snapshotFile, error) {
	var snap snapshotFile
	if err := json.Unmarshal(raw, &snap); err != nil {
		return snap, fmt.Errorf("docstore: decoding collection %s: %w", name, err)
	}
	if snap.IDSeq == 0 && snap.Seq != 0 {
		snap.IDSeq = snap.Seq // legacy format
	}
	for _, d := range snap.Docs {
		if !isDoc(Raw(d)) || Raw(d).ID() == "" {
			return snap, fmt.Errorf("docstore: collection %s holds a document without _id", name)
		}
	}
	return snap, nil
}

func (s *Store) writeSnapshot(c *Collection) error {
	return writeRawFile(s.fs, s.dir, c.name+".json", c.snapshot())
}
