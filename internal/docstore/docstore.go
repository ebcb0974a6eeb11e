// Package docstore is an embedded, concurrency-safe JSON document
// store: named collections of schemaless documents with generated IDs,
// secondary equality indexes, and — when disk-backed — real durability
// via a write-ahead log with group commit plus periodic snapshot
// compaction. A read is Get (by ID), Find (every document), FindEq or
// WalkEq (field equality, answered from an index when there is one),
// Scan (every document, unordered, uncopied) or Count.
//
// It substitutes for the "cluster of MongoDBs" on which the paper's
// preliminary K-DB is built: the K-DB needs exactly this data model —
// six collections of JSON documents — and nothing distributed, so an
// embedded store exercises the same access paths.
//
// # Storage engine
//
// Each collection is one map of documents and its equality indexes
// under one read-write lock. Every write already waits on the one WAL
// committer and holds the lock only for its in-memory apply, and a
// dataset-scoped read goes through the dataset index, so finer locks
// would buy nothing; with one lock an update replaces a document in
// one step, and no reader ever misses it. A disk-backed store appends
// every mutation to an append-only WAL before acknowledging it;
// concurrent writers share one fsync through group commit. Reopening
// a store loads the latest per-collection snapshot and replays the
// WAL tail over it — a torn final record (crash mid-write) is detected
// by CRC framing and truncated, recovering the state of the last
// durable commit. Flush compacts when the WAL has outgrown its budget:
// snapshots are rewritten and the log is reset; replay is idempotent,
// so a crash between the two steps loses nothing.
//
// # Batches
//
// Every write goes through a Batch (Store.Begin, then Insert / Update /
// Upsert / Delete on any of the store's collections, then Commit); the
// single-document Collection methods are one-element batches. The
// contract:
//
//   - Ack: Commit returns nil only when every frame the batch enqueued
//     is durable. It wakes the committer once and waits for the group
//     commit(s) carrying those frames — one write+fsync when no other
//     writer is active — so a batch costs one durability wait however
//     many documents it holds.
//   - Crash: a batch is N ordinary frames, not a transaction. A crash
//     before the ack recovers a frame-prefix of it, in the order the
//     mutations were made — exactly what N single writes would leave.
//     Callers order mutations so every prefix is a state they accept
//     (the K-DB logs a fold before the deletes it makes redundant).
//   - Visibility: each mutation is applied in memory, and visible to
//     readers, when its call returns — before it is durable, exactly
//     as for Insert. A mutation the store refuses (duplicate or
//     missing _id) changes nothing and leaves the batch usable.
//   - Gate: the batch holds the write gate shared from Begin to Commit,
//     once, so compaction waits for open batches. Always Commit, and
//     never Begin, single-write, Flush, Compact or Close on the same
//     goroutine in between: a compaction queued between two shared
//     acquisitions deadlocks both.
//
// There is no batch marker in the log: replay, torn-tail truncation,
// the replication stream and its frame counter see the same frames
// they always did.
//
// # Failure semantics
//
// A failed WAL write or fsync poisons the store: the enqueuer whose
// batch hit the fault gets the error, every later mutation fails fast
// with ErrStoreBroken (wrapped around the root cause), and no write is
// ever acknowledged after an unacknowledged one — the in-memory state
// is ahead of the durable log, so acknowledging past the hole would
// promise durability the disk never provided. A poisoned store stays
// poisoned until reopened; reopening replays exactly the acked prefix.
//
// Snapshot compaction failing is NOT poisoning: the snapshot is
// written to a temporary file and renamed into place only after a
// successful fsync, so a failed compaction (full disk, torn tmp
// write, failed rename) leaves the previous snapshot and the intact
// WAL authoritative. The store keeps accepting writes and the next
// Flush retries compaction.
//
// Every disk operation goes through an injectable filesystem
// (Options.FS, package faultfs), so these contracts are tested under
// deterministic fault schedules rather than asserted.
//
// # Replication contract
//
// The WAL's on-disk format doubles as the replication wire format: a
// leader ships the raw bytes of its durable log and a follower
// (Replica) re-verifies, persists, and replays them with the same code
// a reopening store runs. The contract, which both sides and any
// external tooling may rely on:
//
//   - Frame layout: every record is [4-byte little-endian payload
//     length][4-byte CRC32-IEEE of the payload][JSON payload]. A frame
//     whose length is zero, runs past the durable prefix, or fails its
//     CRC is not a frame — on disk it is the torn tail replay truncates;
//     on the wire it aborts the stream and the follower reconnects.
//     The 8 zero bytes of KeepaliveFrame (zero length, zero CRC) are a
//     stream-level heartbeat only and are never persisted.
//
//   - Offset semantics: a position is (epoch, byte offset, frame
//     count) — see ReplPosition. Offsets address the current epoch's
//     WAL from zero and are only meaningful within that epoch. The
//     epoch increments exactly when a non-empty log compacts into the
//     snapshots (persisted in repl.meta next to them), at which point
//     every prior offset is gone — ErrCompacted — and the snapshot
//     files become the authoritative epoch-start state.
//
//   - Snapshot handoff: SnapshotBootstrap serves the on-disk snapshot
//     files, which always describe exactly offset zero of the current
//     epoch (compaction writes them and resets the log under one
//     exclusive gate). A follower installs them (InstallSnapshot,
//     crash-safe via a negative epoch marker) and tails the WAL from
//     offset zero; its own durable WAL size is thereafter its resume
//     offset, because its log is a byte-identical prefix of the
//     leader's.
//
//   - Change notification: WALReader.Changed hands out a channel that
//     the log's next durable change closes — a commit once its bytes
//     are fsynced and counted in the durable offset, a reset
//     (compaction or snapshot install; the woken Read waits for the new
//     epoch and returns ErrCompacted), or Close (the woken Read fails).
//     A failed commit is not a change. Take the channel before the Read
//     it guards, never after: then a commit landing between the two
//     still closes the channel held, and no wake-up is lost.
package docstore

import "encoding/json"

// Document is one schemaless record. The reserved field "_id" holds
// the document identity (assigned on insert when absent).
type Document map[string]any

// ID returns the document's identity ("" when unset).
func (d Document) ID() string {
	id, _ := d["_id"].(string)
	return id
}

// normalize maps a field value onto its JSON-decoded equivalent, so
// that documents that have round-tripped through disk compare equal to
// fresh ones (all numbers become float64). ok is false for a value no
// equality lookup can match: an object, an array or null. Only the
// scalars it accepts are hashable, so only they become index keys.
func normalize(v any) (key any, ok bool) {
	if f, ok := toFloat(v); ok {
		return f, true
	}
	switch v.(type) {
	case string, bool:
		return v, true
	}
	return nil, false
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case float32:
		return float64(x), true
	case int:
		return float64(x), true
	case int32:
		return float64(x), true
	case int64:
		return float64(x), true
	case uint:
		return float64(x), true
	case json.Number:
		f, err := x.Float64()
		return f, err == nil
	default:
		return 0, false
	}
}

// copyDoc deep-copies JSON-shaped values so callers cannot alias the
// store's internal state.
func copyDoc(d Document) Document {
	out := make(Document, len(d))
	for k, v := range d {
		out[k] = copyValue(v)
	}
	return out
}

func copyValue(v any) any {
	switch x := v.(type) {
	case map[string]any:
		m := make(map[string]any, len(x))
		for k, vv := range x {
			m[k] = copyValue(vv)
		}
		return m
	case Document:
		return map[string]any(copyDoc(x))
	case []any:
		s := make([]any, len(x))
		for i, vv := range x {
			s[i] = copyValue(vv)
		}
		return s
	case []string:
		s := make([]string, len(x))
		copy(s, x)
		return s
	case []float64:
		s := make([]float64, len(x))
		copy(s, x)
		return s
	default:
		return v
	}
}
