package docstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"adahealth/internal/faultfs"
)

// walOp is the mutation kind of one WAL record.
type walOp string

const (
	opInsert walOp = "ins"
	opUpdate walOp = "upd"
	opDelete walOp = "del" // no longer written; older stores hold it
)

// walRecord is one logged mutation. Replay applies records in log
// order with upsert/ignore-missing semantics, so replaying a tail
// whose effects are already folded into a snapshot (a crash between
// snapshot rename and log reset) reconverges on the same state. Order
// (inserts only) is the insertion-order stamp and IDSeq the
// generated-ID counter after the mutation: replay restores both.
type walRecord struct {
	Op         walOp           `json:"op"`
	Collection string          `json:"c"`
	ID         string          `json:"id"`
	Doc        json.RawMessage `json:"doc,omitempty"`
	Order      int64           `json:"ord,omitempty"`
	IDSeq      int64           `json:"seq,omitempty"`
}

// walFrame is the on-disk framing of one record:
//
//	[4-byte little-endian payload length][4-byte CRC32 (IEEE) of payload][payload JSON]
//
// A reopening store replays frames until EOF or the first frame whose
// length or checksum does not hold — a torn write from a crash — and
// truncates the log there, recovering exactly the committed prefix.
const walFrameHeader = 8

// walBufKeep caps the capacity of a written buffer kept for reuse.
const walBufKeep = 1 << 20

// wal is the append-only log of one disk-backed store. Writers enqueue
// encoded records (cheap, under mu) and then commit: the first to take
// writeMu writes every pending frame, its own and those of the writers
// queued behind it, in one write and one fsync, and a writer whose
// frame an earlier write carried returns at once. That is the group
// commit, run by the writers themselves.
type wal struct {
	sync bool // fsync each commit (true unless Options.NoSync)

	// writeMu orders writes to the log: carried, spare and failErr
	// change only under it.
	writeMu sync.Mutex
	// carried is the number of the newest frame a successful write
	// carried (frames are numbered from 1 by enqueue).
	carried int64
	// spare is the previous write's buffer, emptied, which the next
	// writer swaps in for buf, so appends reuse grown capacity.
	spare []byte

	mu sync.Mutex
	f  faultfs.File
	// buf collects the pending frames; queued numbers the newest.
	buf    []byte
	queued int64
	done   bool
	// failErr latches the first commit failure (always wrapping
	// ErrStoreBroken): memory is then ahead of the log, so every further
	// write and compaction is refused until the store is reopened.
	failErr error

	size atomic.Int64 // bytes appended since the last reset
	// frames counts committed frames since the last reset (replay
	// restores it): the replication stream's logical clock.
	frames    atomic.Int64
	bufFrames int64 // frames in buf (guarded by mu)
	// changed is closed at the log's next durable change and then
	// dropped (guarded by mu); it is made only when a reader asks.
	changed chan struct{}
}

// errWALClosed refuses writes and replication reads after close.
var errWALClosed = errors.New("docstore: WAL closed")

// closedChan is the change signal of a closed log: already closed, so
// a waiter wakes at once and its next read reports the close.
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// watch returns the channel the next durable change closes.
func (w *wal) watch() <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return closedChan
	}
	if w.changed == nil {
		w.changed = make(chan struct{})
	}
	return w.changed
}

// signalLocked wakes every watcher of the current change signal; the
// caller holds mu and has already published the change (size, frames,
// reset or done).
func (w *wal) signalLocked() {
	if w.changed != nil {
		close(w.changed)
		w.changed = nil
	}
}

// openWAL opens (creating if needed) the log at path, replays its
// committed prefix through apply and truncates any torn tail.
func openWAL(fsys faultfs.FS, path string, syncWrites bool, apply func(walRecord) error) (_ *wal, err error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("docstore: opening WAL %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	good, frames, err := replayWAL(f, apply)
	if err != nil {
		return nil, err
	}
	// Drop a torn tail (crash mid-frame) so appends extend the durable
	// prefix instead of interleaving with garbage.
	if err := f.Truncate(good); err != nil {
		return nil, fmt.Errorf("docstore: truncating WAL tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		return nil, fmt.Errorf("docstore: seeking WAL: %w", err)
	}
	w := &wal{sync: syncWrites, f: f}
	w.size.Store(good)
	w.frames.Store(frames)
	return w, nil
}

// replayWAL feeds every intact frame to apply and returns the byte
// offset just past the last intact frame and the frame count. Torn or
// corrupt frames end the replay without error: they are the
// uncommitted tail.
func replayWAL(f faultfs.File, apply func(walRecord) error) (good, frames int64, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("docstore: stating WAL: %w", err)
	}
	data := make([]byte, info.Size())
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("docstore: seeking WAL: %w", err)
	}
	if _, err := io.ReadFull(f, data); err != nil {
		return 0, 0, fmt.Errorf("docstore: reading WAL: %w", err)
	}
	for ; ; frames++ {
		payload, n, ok := frameAt(data[good:])
		if n == 0 || !ok {
			return good, frames, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return good, frames, nil
		}
		if err := apply(rec); err != nil {
			return good, frames, fmt.Errorf("docstore: replaying WAL record: %w", err)
		}
		good += int64(n)
	}
}

// frameAt reads the frame data starts with: its payload and its size,
// header included. size is 0 when data is shorter than the frame; ok
// is false when the bytes are no frame — a zero length, or a payload
// that fails its CRC.
func frameAt(data []byte) (payload []byte, size int, ok bool) {
	if len(data) < walFrameHeader {
		return nil, 0, true
	}
	size = walFrameHeader + int(binary.LittleEndian.Uint32(data))
	if size > len(data) {
		return nil, 0, true
	}
	payload = data[walFrameHeader:size]
	return payload, size, size > walFrameHeader && crc32.ChecksumIEEE(payload) == binary.LittleEndian.Uint32(data[4:])
}

// decodeRecord decodes one frame's payload. A missing document, or one
// that is not a JSON object, makes the frame undecodable.
func decodeRecord(payload []byte) (walRecord, error) {
	var rec walRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, err
	}
	if (rec.Doc != nil || rec.Op == opInsert || rec.Op == opUpdate) && !isDoc(Raw(rec.Doc)) {
		return rec, fmt.Errorf("docstore: WAL record for %s/%s holds no document", rec.Collection, rec.ID)
	}
	return rec, nil
}

// enqueue frames rec into the pending buffer and returns the frame's
// number, which the writer passes to commit. It does no I/O, so it may
// run under a collection lock, which is what orders the records
// touching one document; a many-frame Batch commits once, after its
// last enqueue.
func (w *wal) enqueue(rec walRecord) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return 0, errWALClosed
	}
	if w.failErr != nil {
		return 0, fmt.Errorf("docstore: WAL failed earlier: %w", w.failErr)
	}
	start := len(w.buf)
	w.buf = appendRecord(slices.Grow(w.buf, walFrameHeader+len(rec.Doc)+len(rec.Collection)+len(rec.ID)+96), rec)
	payload := w.buf[start+walFrameHeader:]
	binary.LittleEndian.PutUint32(w.buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[start+4:], crc32.ChecksumIEEE(payload))
	w.bufFrames++
	w.queued++
	return w.queued, nil
}

// appendRecord appends rec's frame to dst, its header left for the
// caller to fill: the walRecord's JSON, written by hand so the
// document goes in as the bytes it is stored as.
func appendRecord(dst []byte, rec walRecord) []byte {
	dst = append(append(dst, make([]byte, walFrameHeader)...), `{"op":"`+string(rec.Op)+`","c":`...)
	dst = appendString(append(appendString(dst, rec.Collection), `,"id":`...), rec.ID)
	if rec.Doc != nil {
		dst = append(append(dst, `,"doc":`...), rec.Doc...)
	}
	if rec.Order != 0 {
		dst = strconv.AppendInt(append(dst, `,"ord":`...), rec.Order, 10)
	}
	if rec.IDSeq != 0 {
		dst = strconv.AppendInt(append(dst, `,"seq":`...), rec.IDSeq, 10)
	}
	return append(dst, '}')
}

// commit returns once frame n is durable: at once when an earlier
// write carried it, otherwise after writing every pending frame itself.
func (w *wal) commit(n int64) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	if n <= w.carried {
		return nil
	}
	return w.writePending()
}

// writePending writes every pending frame in one write, fsynced unless
// NoSync, and settles it. A log that failed earlier writes nothing
// more and returns its latched failure: a frame written past the hole
// would be acked where replay never sees it. The caller holds writeMu.
func (w *wal) writePending() error {
	if w.failErr != nil {
		return w.failErr
	}
	w.mu.Lock()
	if len(w.buf) == 0 {
		w.mu.Unlock()
		return nil
	}
	data, nframes, last := w.buf, w.bufFrames, w.queued
	w.buf, w.spare, w.bufFrames = w.spare, nil, 0
	w.mu.Unlock()

	err := w.write(data)
	walCommitFrames.Observe(float64(nframes))
	w.mu.Lock()
	err = w.committedLocked(err, len(data), nframes)
	w.mu.Unlock()
	if err == nil {
		w.carried = last
	}
	// Recycle the written buffer unless one outsized commit grew it:
	// pinning that forever would cost more than regrowing it.
	if cap(data) <= walBufKeep {
		w.spare = data[:0]
	}
	return err
}

// appendRaw writes already-framed bytes (whole, CRC-verified frames)
// directly to the log and fsyncs — the replication follower's apply
// path, which must persist the leader's frames byte-identically rather
// than re-encode them. It must not be mixed with enqueue-based writes:
// the caller (a Replica) is the store's only writer.
func (w *wal) appendRaw(data []byte, nframes int64) error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return errWALClosed
	}
	if w.failErr != nil {
		return fmt.Errorf("docstore: WAL failed earlier: %w", w.failErr)
	}
	if len(w.buf) != 0 {
		return fmt.Errorf("docstore: appendRaw with queued writer frames pending")
	}
	return w.committedLocked(w.write(data), len(data), nframes)
}

// write appends data to the file and fsyncs it unless NoSync.
func (w *wal) write(data []byte) error {
	t0 := time.Now()
	_, err := w.f.Write(data)
	if err == nil && w.sync {
		err = w.f.Sync()
	}
	walCommitSeconds.ObserveSince(t0)
	return err
}

// committedLocked settles a write of n bytes holding nframes frames:
// it counts them durable and signals the change, or latches the
// failure that breaks the store. The caller holds writeMu and mu.
func (w *wal) committedLocked(err error, n int, nframes int64) error {
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrStoreBroken, err)
		if w.failErr == nil {
			w.failErr = err
		}
		return err
	}
	w.size.Add(int64(n))
	w.frames.Add(nframes)
	walFramesTotal.Add(nframes)
	w.signalLocked()
	return nil
}

// closed reports whether close has begun.
func (w *wal) closed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.done
}

// failed returns the latched commit failure, if any.
func (w *wal) failed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failErr
}

// flushNow writes any pending frames and, on a NoSync log, fsyncs the
// file — the durability barrier Flush offers NoSync stores. A synced
// log's writes were fsynced as they committed.
func (w *wal) flushNow() error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	if w.closed() {
		return nil
	}
	if err := w.writePending(); err != nil || w.sync {
		return err
	}
	return w.f.Sync()
}

// reset empties the log after a snapshot compaction. The caller must
// guarantee no writer is in flight (the store holds its compaction
// lock exclusively). It signals even on failure: a waiter that wakes
// for nothing just reads again.
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.signalLocked()
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("docstore: resetting WAL: %w", err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("docstore: seeking WAL: %w", err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("docstore: syncing WAL reset: %w", err)
		}
	}
	w.size.Store(0)
	w.frames.Store(0)
	return nil
}

// close refuses further enqueues, writes the frames already pending
// (a failed write latches its error for the writers it carried) and
// closes the file.
func (w *wal) close() error {
	w.writeMu.Lock()
	defer w.writeMu.Unlock()
	w.mu.Lock()
	if w.done {
		w.mu.Unlock()
		return nil
	}
	w.done = true
	w.signalLocked()
	w.mu.Unlock()
	_ = w.writePending()
	return w.f.Close()
}
