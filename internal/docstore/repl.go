package docstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"adahealth/internal/faultfs"
)

// This file is the replication layer of the store: the leader side
// (ReplPosition, WALReader, SnapshotBootstrap) and the follower side
// (Replica). See the package comment's "Replication contract".

// replMetaFile persists the store's compaction epoch next to the
// snapshots and WAL. A missing file means epoch 0 (a store that never
// compacted); a negative epoch marks a replica whose snapshot install
// was interrupted and must re-bootstrap.
const replMetaFile = "repl.meta"

type replMeta struct {
	Epoch int64 `json:"epoch"`
}

// readReplMeta loads the persisted epoch; ok is false when the file is
// missing or unreadable (both mean "no durable epoch claim").
func readReplMeta(fsys faultfs.FS, dir string) (epoch int64, ok bool) {
	raw, err := fsys.ReadFile(filepath.Join(dir, replMetaFile))
	if err != nil {
		return 0, false
	}
	var m replMeta
	if err := json.Unmarshal(raw, &m); err != nil {
		return 0, false
	}
	return m.Epoch, true
}

// writeReplMeta durably persists the epoch (tmp + fsync + rename; the
// caller orders the directory fsync against its other renames).
func writeReplMeta(fsys faultfs.FS, dir string, epoch int64) error {
	raw, err := json.Marshal(replMeta{Epoch: epoch})
	if err != nil {
		return err
	}
	return writeRawFile(fsys, dir, replMetaFile, raw)
}

// ReplPosition identifies a point in a store's replication stream:
// the compaction epoch, the durable byte offset into that epoch's WAL,
// and the frame count at that offset. Offsets are only comparable
// within one epoch — a compaction folds the log into the snapshots,
// resets the offset to zero, and increments the epoch, so a follower
// holding a position from an older epoch must re-bootstrap from a
// snapshot.
type ReplPosition struct {
	Epoch  int64 `json:"epoch"`
	Offset int64 `json:"offset"`
	Frames int64 `json:"frames"`
}

// ErrCompacted reports a WAL read whose position no longer exists on
// the leader: the requested epoch was compacted away (or the offset
// runs past the durable log, meaning the peer's history diverged).
// The follower's recovery is a fresh snapshot bootstrap.
var ErrCompacted = errors.New("docstore: replication position compacted away")

// ErrMemoryOnly rejects replication primitives on a store without a
// persistence directory: there is no WAL to ship.
var ErrMemoryOnly = errors.New("docstore: memory-only store cannot replicate")

// ReplStatus snapshots the durable replication position. It briefly
// holds the write gate shared so the (epoch, offset) pair cannot tear
// across a concurrent compaction.
func (s *Store) ReplStatus() ReplPosition {
	if s.wal == nil {
		return ReplPosition{}
	}
	s.writeGate.RLock()
	defer s.writeGate.RUnlock()
	return s.positionLocked()
}

// positionLocked is the durable position; the caller holds the write
// gate.
func (s *Store) positionLocked() ReplPosition {
	return ReplPosition{Epoch: s.epoch.Load(), Offset: s.wal.size.Load(), Frames: s.wal.frames.Load()}
}

// KeepaliveFrame returns the 8-byte heartbeat frame a replication
// stream interleaves when no WAL data is pending: a zero length and
// zero CRC, which no real log holds, so a follower discards it.
func KeepaliveFrame() []byte { return make([]byte, walFrameHeader) }

// DefaultWALReadChunk bounds one WALReader read (and so one streamed
// chunk on the replication endpoint).
const DefaultWALReadChunk = 256 << 10

// WALReader reads the durable prefix of a store's WAL as raw frame
// bytes — the leader side of WAL shipping — through a fresh read
// handle per call, holding the write gate shared so no compaction
// lands mid-read.
type WALReader struct {
	s *Store
}

// WALReader returns a reader over the store's WAL; it fails on
// memory-only stores.
func (s *Store) WALReader() (*WALReader, error) {
	if s.wal == nil {
		return nil, ErrMemoryOnly
	}
	return &WALReader{s: s}, nil
}

// Changed returns a channel that is closed at the log's next durable
// change — a group commit advancing the durable offset, a compaction or
// snapshot install resetting the log, or Close — so a caught-up reader
// can block instead of polling. Each change closes the channel handed
// out before it; later calls get a fresh one.
//
// Take it BEFORE Read: a change that lands after Changed returns closes
// the channel already held, so the ordering "ch := Changed(); Read;
// wait on ch" cannot miss a commit the Read did not see. Taken after
// Read, a commit landing in between is lost until the next one.
//
// A wake-up says only "read again". After a compaction the Read waits
// for the new epoch and returns ErrCompacted; after Close it returns an
// error. A failed (poisoning) commit is not a durable change and does
// not fire it.
func (r *WALReader) Changed() <-chan struct{} { return r.s.wal.watch() }

// Read returns up to maxBytes (<= 0 selects DefaultWALReadChunk) of
// raw frame bytes starting at byte offset `from` of the given epoch's
// WAL, plus the store's current durable position. An empty slice with
// a nil error means the follower is caught up. ErrCompacted reports a
// position that no longer exists (stale epoch, or an offset past the
// durable log); reading a closed store fails.
func (r *WALReader) Read(epoch, from int64, maxBytes int) ([]byte, ReplPosition, error) {
	s := r.s
	if maxBytes <= 0 {
		maxBytes = DefaultWALReadChunk
	}
	s.writeGate.RLock()
	defer s.writeGate.RUnlock()

	pos := s.positionLocked()
	if s.wal.closed() {
		return nil, pos, errWALClosed
	}
	if epoch != pos.Epoch || from > pos.Offset || from < 0 {
		return nil, pos, ErrCompacted
	}
	n := min(pos.Offset-from, int64(maxBytes))
	if n == 0 {
		return nil, pos, nil
	}
	f, err := s.fs.OpenFile(filepath.Join(s.dir, "wal.log"), os.O_RDONLY, 0)
	if err != nil {
		return nil, pos, fmt.Errorf("docstore: opening WAL for replication: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return nil, pos, fmt.Errorf("docstore: seeking WAL for replication: %w", err)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil, pos, fmt.Errorf("docstore: reading WAL for replication: %w", err)
	}
	return buf, pos, nil
}

// SnapshotBootstrap captures the store's epoch-start state for a
// follower bootstrap: the snapshot files on disk, keyed by collection
// name — exactly the state at the current epoch's offset zero, since a
// compaction writes them and resets the log under one exclusive gate —
// plus the current position.
func (s *Store) SnapshotBootstrap() (ReplPosition, map[string][]byte, error) {
	if s.wal == nil {
		return ReplPosition{}, nil, ErrMemoryOnly
	}
	s.writeGate.RLock()
	defer s.writeGate.RUnlock()

	pos := s.positionLocked()
	files, err := readSnapshots(s.fs, s.dir)
	return pos, files, err
}

// Replica is a read-only store maintained by applying a leader's
// shipped WAL frames through the reopen path: each frame is
// CRC-verified, appended byte-identically to the replica's own WAL and
// folded into memory as replay folds it — so a replica killed at any
// byte recovers exactly the applied prefix, and its resume position is
// its local WAL's durable size. It must be the store's only writer.
type Replica struct {
	s *Store

	mu    sync.Mutex
	epoch int64 // -1: needs a snapshot bootstrap before tailing
}

// OpenReplica opens (or resumes) a follower store in o.Dir. A replica
// whose last snapshot install was interrupted (negative or missing
// epoch marker) discards any partial state and reports
// NeedsBootstrap.
func OpenReplica(o Options) (*Replica, error) {
	if o.Dir == "" {
		return nil, ErrMemoryOnly
	}
	fsys := o.FS
	if fsys == nil {
		fsys = faultfs.OS()
	}
	if err := fsys.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("docstore: creating %s: %w", o.Dir, err)
	}
	epoch, ok := readReplMeta(fsys, o.Dir)
	if !ok || epoch < 0 {
		// No durable epoch claim: whatever files exist are a partial
		// install (or a directory this replica has never synced), and
		// loading them could mix two epochs' states. Start empty.
		if err := removeFiles(fsys, o.Dir, func(name string) bool {
			return strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".json.tmp") || name == "wal.log"
		}); err != nil {
			return nil, err
		}
		epoch = -1
	}
	s, err := OpenOptions(o)
	if err != nil {
		return nil, err
	}
	return &Replica{s: s, epoch: epoch}, nil
}

// removeFiles removes every file in dir whose name drop accepts.
func removeFiles(fsys faultfs.FS, dir string, drop func(name string) bool) error {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("docstore: reading %s: %w", dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() && drop(e.Name()) {
			if err := fsys.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("docstore: removing %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// Store exposes the replica's underlying store for reads (a follower
// K-DB wraps it). Callers must not write to it.
func (r *Replica) Store() *Store { return r.s }

// Epoch returns the leader epoch the replica is synced to (-1 before
// the first bootstrap).
func (r *Replica) Epoch() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// NeedsBootstrap reports whether the replica must install a snapshot
// before tailing WAL frames.
func (r *Replica) NeedsBootstrap() bool { return r.Epoch() < 0 }

// Position returns the replica's durable resume position: the epoch it
// is synced to and its local WAL's size and frame count, which — the
// local WAL being a byte-identical prefix of the leader's — is exactly
// the offset to request next.
func (r *Replica) Position() ReplPosition {
	r.mu.Lock()
	epoch := r.epoch
	r.mu.Unlock()
	return ReplPosition{
		Epoch:  epoch,
		Offset: r.s.wal.size.Load(),
		Frames: r.s.wal.frames.Load(),
	}
}

// ApplyFrames verifies and applies shipped WAL bytes: every complete
// frame is CRC-checked, persisted raw to the replica's WAL, and folded
// into memory; keepalive frames are discarded. It returns how many
// bytes were consumed (a trailing partial frame stays unconsumed — the
// caller re-offers it with more bytes once they arrive) and how many
// data frames were applied. A frame that fails its CRC or does not
// decode returns an error with the bytes before it consumed: the wire
// carried a torn or corrupt frame and the caller must reconnect and
// resume from the durable position.
func (r *Replica) ApplyFrames(data []byte) (consumed int, applied int64, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	var (
		persist []byte      // verified non-keepalive frame bytes to append
		recs    []walRecord // their decoded records, in order
	)
	off := 0
	for {
		if bytes.HasPrefix(data[off:], KeepaliveFrame()) {
			off += walFrameHeader // heartbeat only, never persisted
			continue
		}
		payload, n, ok := frameAt(data[off:])
		if !ok {
			err = fmt.Errorf("docstore: corrupt replicated frame at %d", off)
			break
		}
		if n == 0 {
			break // partial frame: wait for more bytes
		}
		rec, jerr := decodeRecord(payload)
		if jerr != nil {
			err = fmt.Errorf("docstore: decoding replicated frame: %w", jerr)
			break
		}
		persist = append(persist, data[off:off+n]...)
		recs = append(recs, rec)
		off += n
	}

	if len(persist) > 0 {
		// Durability first, then memory: a crash between the two replays
		// the persisted frames on reopen, converging on the same state.
		if werr := r.s.wal.appendRaw(persist, int64(len(recs))); werr != nil {
			return 0, 0, werr
		}
		for _, rec := range recs {
			if aerr := r.s.applyRecord(rec); aerr != nil {
				return 0, 0, aerr
			}
		}
	}
	return off, int64(len(recs)), err
}

// InstallSnapshot replaces the replica's entire state with a leader
// snapshot bootstrap (the files of SnapshotBootstrap) positioned at
// (epoch, 0). The install is crash-safe: the epoch marker goes
// negative (durably) before any file changes, so an interrupted
// install is detected on reopen and re-bootstrapped from scratch, and
// only flips to the new epoch after every file and the reset WAL are
// durable. In-memory collections are reloaded in place, keeping their
// indexes.
func (r *Replica) InstallSnapshot(epoch int64, files map[string][]byte) error {
	if epoch < 0 {
		return fmt.Errorf("docstore: snapshot with negative epoch %d", epoch)
	}
	// Decode before touching anything: a corrupt snapshot must not
	// destroy the current state.
	snaps := make(map[string]snapshotFile, len(files))
	for name, raw := range files {
		snap, err := decodeSnapshot(name, raw)
		if err != nil {
			return err
		}
		snaps[name] = snap
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.s
	s.writeGate.Lock()
	defer s.writeGate.Unlock()

	// 1. Durably mark the install in progress: a crash anywhere below
	// leaves a negative epoch, which OpenReplica treats as "partial
	// state, wipe and re-bootstrap".
	if err := writeReplMeta(s.fs, s.dir, -1); err != nil {
		return fmt.Errorf("docstore: marking snapshot install: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("docstore: syncing install marker: %w", err)
	}
	// 2. Replace the on-disk snapshot set.
	if err := removeFiles(s.fs, s.dir, func(name string) bool {
		_, keep := files[strings.TrimSuffix(name, ".json")]
		return strings.HasSuffix(name, ".json") && !keep
	}); err != nil {
		return err
	}
	for name, raw := range files {
		if err := writeRawFile(s.fs, s.dir, name+".json", raw); err != nil {
			return fmt.Errorf("docstore: installing snapshot %s: %w", name, err)
		}
	}
	// 3. Reset the WAL: the snapshot IS the epoch-start state, frames
	// tail from offset zero.
	if err := s.wal.reset(); err != nil {
		return err
	}
	// 4. Everything durable, in order, then the epoch claim.
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("docstore: syncing installed snapshot: %w", err)
	}
	if err := writeReplMeta(s.fs, s.dir, epoch); err != nil {
		return fmt.Errorf("docstore: committing snapshot install: %w", err)
	}
	// 5. Reload memory in place (existing *Collection handles stay
	// valid; collections absent from the snapshot empty out).
	for name := range snaps {
		s.Collection(name)
	}
	for _, name := range s.CollectionNames() {
		s.Collection(name).load(snaps[name])
	}
	s.epoch.Store(epoch)
	r.epoch = epoch
	return nil
}

// writeRawFile writes raw bytes as dir/name via tmp + fsync + rename,
// removing the tmp file when any step fails.
func writeRawFile(fsys faultfs.FS, dir, name string, raw []byte) (err error) {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			fsys.Remove(tmp)
		}
	}()
	_, err = f.Write(raw)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, filepath.Join(dir, name))
	}
	return err
}

// Close releases the replica's WAL. Unlike Store.Close it never
// compacts: compaction is an epoch-advancing leader operation, and a
// replica's epoch belongs to its leader.
func (r *Replica) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.s.wal.close()
}
