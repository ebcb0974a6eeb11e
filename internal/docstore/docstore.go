// Package docstore is an embedded, concurrency-safe JSON document
// store: named collections of schemaless documents with generated IDs,
// secondary equality indexes, and — when disk-backed — real durability
// via a write-ahead log with group commit plus periodic snapshot
// compaction. A write is Insert (a new _id, generated when the
// document has none) or Upsert (replace the document with that _id, or
// insert it). A read is Scan (every document, unordered) or WalkEq
// (field equality, answered from an index when there is one), each
// handing out the stored bytes; FindEq decodes WalkEq's read into
// Documents, and Count counts.
//
// It substitutes for the "cluster of MongoDBs" on which the paper's
// preliminary K-DB is built: the K-DB needs exactly this data model —
// six collections of JSON documents — and nothing distributed, so an
// embedded store exercises the same access paths.
//
// # Storage engine
//
// A stored document is the JSON object it was written as (Raw): a
// write marshals a value once, or takes JSON bytes as they are, and a
// generated _id is appended to those bytes as their last member. The
// store keeps the bytes, the _id and the scalar keys of the indexed
// fields; one field scanner reads the latter wherever a document is
// created — a write, WAL replay, a snapshot load, a replica's apply —
// after checking the document is one encoding/json decodes. The WAL
// frame and the snapshot carry the same bytes, so nothing is
// re-encoded on the way to disk or back. Stored bytes are immutable —
// an upsert binds new bytes — so a read hands them out without
// copying, and a reader may keep them as a snapshot of that version.
//
// Each collection is one map of documents and its equality indexes
// under one read-write lock: every write already waits its turn at
// the one WAL write, so finer locks would buy nothing, and with one
// lock an upsert replaces a document in one step that no reader
// misses. A disk-backed store appends every mutation to an append-only
// WAL before acknowledging it. Concurrent writers share one write and
// one fsync through group commit: the committing writer writes every
// pending frame, its own and those of the writers queued behind it,
// and a writer whose frame an earlier write carried returns at once.
// The store starts no goroutine. Reopening loads the latest per-collection snapshot and
// replays the WAL tail over it; a torn final record (crash mid-write)
// fails its CRC framing and is truncated, recovering the last durable
// commit. Flush compacts when the WAL has outgrown its budget:
// snapshots are rewritten and the log is reset; replay is idempotent,
// so a crash between the two steps loses nothing.
//
// # Batches
//
// Every write goes through a Batch (Store.Begin, mutations on any of
// the store's collections, Commit); the single-document Collection
// methods are one-element batches. Commit returns nil only when every
// frame the batch enqueued is durable, at the cost of one durability
// wait however many documents it holds. A batch is N ordinary frames,
// not a transaction: a crash before the ack recovers a frame-prefix of
// it, so callers order mutations so that every prefix is a state they
// accept (the K-DB writes an analysis's knowledge items, each of which
// stands alone, before its descriptor, and a live dataset's
// registration descriptor before its first batch).
// Each mutation is visible to readers when its call returns, before it
// is durable; one the store refuses changes nothing and leaves the
// batch usable. There is no batch marker in the log.
//
// # Failure semantics
//
// A failed WAL write or fsync poisons the store: the enqueuer whose
// batch hit the fault gets the error, every later mutation fails fast
// with ErrStoreBroken (wrapped around the root cause), and no write is
// ever acknowledged after an unacknowledged one — the in-memory state
// is ahead of the durable log. A poisoned store stays poisoned until
// reopened; reopening replays exactly the acked prefix. A failed
// snapshot compaction is not poisoning: snapshots are renamed into
// place only after a successful fsync, so the previous snapshot and
// the intact WAL stay authoritative and the next Flush retries. Every
// disk operation goes through an injectable filesystem (Options.FS,
// package faultfs), so these contracts are tested under deterministic
// fault schedules.
//
// # Replication contract
//
// The WAL's on-disk format doubles as the replication wire format: a
// leader ships the raw bytes of its durable log and a follower
// (Replica) re-verifies, persists, and replays them with the same code
// a reopening store runs.
//
//   - Frame layout: [4-byte little-endian payload length][4-byte
//     CRC32-IEEE of the payload][JSON payload]. A zero length, a frame
//     past the durable prefix or a failed CRC is not a frame: on disk
//     it is the torn tail, on the wire it aborts the stream. The 8 zero
//     bytes of KeepaliveFrame are a heartbeat, never persisted.
//   - Offsets: a position is (epoch, byte offset, frame count) — see
//     ReplPosition. The epoch increments exactly when a non-empty log
//     compacts into the snapshots, and every earlier offset is then
//     gone (ErrCompacted).
//   - Snapshot handoff: SnapshotBootstrap serves the snapshot files,
//     which describe exactly offset zero of the current epoch; a
//     follower installs them (InstallSnapshot) and tails the WAL from
//     zero. Its durable WAL size is its resume offset, because its log
//     is a byte-identical prefix of the leader's.
//   - Change notification: see WALReader.Changed.
package docstore

import (
	"bytes"
	"encoding/json"
	"errors"
)

// Document is one schemaless record in decoded form: what FindEq
// returns, and a value a write marshals. The reserved field
// "_id" holds the document identity (assigned on insert when absent).
type Document map[string]any

// errNotDoc refuses a written document that is not one (see isDoc).
var errNotDoc = errors.New("docstore: a document must be a JSON object encoding/json decodes")

// encode returns a written document as JSON in a buffer of the store's
// own, with room for the _id a write may append: JSON bytes (Raw or
// []byte) are copied as they are, any other value is marshalled once.
func encode(doc any) (Raw, error) {
	var buf roomy
	raw, isJSON := doc.([]byte)
	if r, ok := doc.(Raw); ok {
		raw, isJSON = r, true
	}
	if isJSON {
		buf.Write(raw)
	} else if err := json.NewEncoder(&buf).Encode(doc); err != nil {
		return nil, err
	}
	// What the Encoder writes is valid JSON already.
	if isJSON && !json.Valid(buf) || !isDoc(Raw(buf)) {
		return nil, errNotDoc
	}
	return Raw(buf), nil
}

// roomy keeps the one write an Encoder makes, without its newline, in
// a buffer with room to append a generated _id in place.
type roomy []byte

func (w *roomy) Write(p []byte) (int, error) {
	*w = append(make([]byte, 0, len(p)+48), bytes.TrimSuffix(p, []byte("\n"))...)
	return len(p), nil
}

// normalize maps a field value onto the scalar key an equality index
// holds for it: what the value decodes to once written (every number a
// float64; see Raw.Scalar). ok is false for a value no equality lookup
// can match: an object, an array or null.
func normalize(v any) (key any, ok bool) {
	if _, ok := v.(string); ok {
		return v, true // the lookup every K-DB read makes, without a marshal
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, false
	}
	return Raw(raw).Scalar()
}
