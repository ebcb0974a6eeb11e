package docstore

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
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
	opDelete walOp = "del"
)

// walRecord is one logged mutation. Replay applies records in log
// order with upsert/ignore-missing semantics, so replaying a tail
// whose effects are already folded into a snapshot (a crash between
// snapshot rename and log reset) reconverges on the same state.
type walRecord struct {
	Op         walOp    `json:"op"`
	Collection string   `json:"c"`
	ID         string   `json:"id"`
	Doc        Document `json:"doc,omitempty"`
	// Order is the document's insertion-order stamp (inserts only);
	// replay restores it so scan order survives a restart.
	Order int64 `json:"ord,omitempty"`
	// IDSeq is the collection's generated-ID counter after this
	// mutation, replayed so fresh inserts cannot collide.
	IDSeq int64 `json:"seq,omitempty"`
}

// walFrame is the on-disk framing of one record:
//
//	[4-byte little-endian payload length][4-byte CRC32 (IEEE) of payload][payload JSON]
//
// A reopening store replays frames until EOF or the first frame whose
// length or checksum does not hold — a torn write from a crash — and
// truncates the log there, recovering exactly the committed prefix.
const walFrameHeader = 8

// walBufKeep caps the capacity of a commit buffer the committer keeps
// for reuse.
const walBufKeep = 1 << 20

// walBatch is one group commit: every record enqueued while the
// committer was busy shares a single write+fsync, and every enqueuer
// blocks on the same done channel.
type walBatch struct {
	done chan struct{}
	err  error
}

// wal is the append-only log of one disk-backed store. Writers enqueue
// encoded records (cheap, under the log mutex) and then wait for the
// committer goroutine to make their batch durable; the committer folds
// all pending records into one write and one fsync.
type wal struct {
	path string
	sync bool // fsync each commit (true unless Options.NoSync)

	mu sync.Mutex
	f  faultfs.File
	// buf collects the pending frames; spare (touched only by the
	// committer goroutine) is the previous commit's buffer, emptied,
	// which the committer swaps in when it takes buf — a many-frame
	// batch then appends into capacity it already grew instead of
	// doubling up from nil on every commit.
	buf   []byte
	spare []byte
	cur   *walBatch
	done  bool
	// failErr latches the first commit failure: once a batch could not
	// be written (disk full, I/O error), the in-memory state is ahead
	// of the log, so every further write — and, crucially, compaction,
	// which would otherwise snapshot the unlogged state into
	// durability — is refused with this error. The store must be
	// reopened to recover to the last durable commit. failErr always
	// wraps ErrStoreBroken.
	failErr error

	wake chan struct{}
	exit chan struct{}

	size atomic.Int64 // bytes appended since the last reset
	// frames counts committed frames since the last reset — the
	// replication stream's logical clock (a follower's frames-behind
	// gauge is the leader's count minus its own). Replay restores it,
	// so the count survives a restart.
	frames atomic.Int64
	// bufFrames counts the frames currently in buf (guarded by mu),
	// folded into frames when their batch commits.
	bufFrames int64
}

// openWAL opens (creating if needed) the log at path, replays its
// committed prefix through apply, truncates any torn tail, and starts
// the group committer.
func openWAL(fsys faultfs.FS, path string, syncWrites bool, apply func(walRecord) error) (*wal, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("docstore: opening WAL %s: %w", path, err)
	}
	var replayed int64
	good, err := replayWAL(f, func(rec walRecord) error {
		replayed++
		return apply(rec)
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop a torn tail (crash mid-frame) so appends extend the durable
	// prefix instead of interleaving with garbage.
	if err := f.Truncate(good); err != nil {
		f.Close()
		return nil, fmt.Errorf("docstore: truncating WAL tail: %w", err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("docstore: seeking WAL: %w", err)
	}
	w := &wal{
		path: path,
		sync: syncWrites,
		f:    f,
		wake: make(chan struct{}, 1),
		exit: make(chan struct{}),
	}
	w.size.Store(good)
	w.frames.Store(replayed)
	go w.commitLoop()
	return w, nil
}

// replayWAL feeds every intact frame to apply and returns the byte
// offset just past the last intact frame. Torn or corrupt frames end
// the replay without error: they are the uncommitted tail.
func replayWAL(f faultfs.File, apply func(walRecord) error) (int64, error) {
	info, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("docstore: stating WAL: %w", err)
	}
	fileSize := info.Size()
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, fmt.Errorf("docstore: seeking WAL: %w", err)
	}
	r := newByteReader(f)
	var good int64
	header := make([]byte, walFrameHeader)
	for {
		if _, err := io.ReadFull(r, header); err != nil {
			return good, nil // EOF or short header: end of committed prefix
		}
		length := binary.LittleEndian.Uint32(header[:4])
		sum := binary.LittleEndian.Uint32(header[4:])
		// A length running past the file is a torn or corrupt frame;
		// checking against the real remainder also caps the payload
		// allocation (a flipped length byte must not ask for 1 GiB on
		// the recovery path).
		if length == 0 || int64(length) > fileSize-good-walFrameHeader {
			return good, nil
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return good, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return good, nil // corrupt frame
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return good, nil
		}
		if err := apply(rec); err != nil {
			return good, fmt.Errorf("docstore: replaying WAL record: %w", err)
		}
		good += int64(walFrameHeader) + int64(length)
	}
}

// newByteReader buffers sequential reads during replay.
func newByteReader(f faultfs.File) io.Reader { return &walReader{f: f} }

type walReader struct {
	f   faultfs.File
	buf []byte
	pos int
}

func (r *walReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.buf) {
		chunk := make([]byte, 1<<16)
		n, err := r.f.Read(chunk)
		if n == 0 {
			return 0, err
		}
		r.buf, r.pos = chunk[:n], 0
	}
	n := copy(p, r.buf[r.pos:])
	r.pos += n
	return n, nil
}

// enqueue frames rec into the pending batch and returns the batch to
// wait on. It is cheap (no I/O) and safe to call while holding a shard
// lock, which is what serializes records touching one document into
// log order. It does not wake the committer: the frame rides whichever
// group commit comes next, and a writer about to wait calls kick, so a
// many-frame Batch costs one commit rather than one per frame the
// committer happened to catch.
func (w *wal) enqueue(rec walRecord) (*walBatch, error) {
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("docstore: encoding WAL record: %w", err)
	}
	var header [walFrameHeader]byte
	binary.LittleEndian.PutUint32(header[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(header[4:], crc32.ChecksumIEEE(payload))

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return nil, fmt.Errorf("docstore: WAL closed")
	}
	if w.failErr != nil {
		return nil, fmt.Errorf("docstore: WAL failed earlier: %w", w.failErr)
	}
	w.buf = append(w.buf, header[:]...)
	w.buf = append(w.buf, payload...)
	w.bufFrames++
	if w.cur == nil {
		w.cur = &walBatch{done: make(chan struct{})}
	}
	return w.cur, nil
}

// kick wakes the committer when frames are pending and returns their
// batch (nil when nothing is pending or the log is closed, whose final
// drain commits what was enqueued before it).
func (w *wal) kick() *walBatch {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done || w.cur == nil {
		return nil
	}
	// Send while still holding the mutex: close() also takes it before
	// closing the channel, so a send can never race a close.
	select {
	case w.wake <- struct{}{}:
	default:
	}
	return w.cur
}

// commitLoop is the single committer: it drains the pending buffer,
// writes it in one syscall, fsyncs once, and releases every writer of
// the batch.
func (w *wal) commitLoop() {
	defer close(w.exit)
	for range w.wake {
		w.commitPending()
	}
	w.commitPending() // drain whatever arrived before close
}

func (w *wal) commitPending() {
	w.mu.Lock()
	if len(w.buf) == 0 {
		w.mu.Unlock()
		return
	}
	data, batch, nframes := w.buf, w.cur, w.bufFrames
	w.buf, w.spare, w.cur, w.bufFrames = w.spare, nil, nil, 0
	// A batch enqueued while the failing commit was in flight must not
	// be written: its frames would land past the hole left by the
	// unacknowledged batch, and replay (which stops at the hole) would
	// never see them — yet the writers would be told their mutations
	// are durable. Fail the batch with the latched error instead.
	if w.failErr != nil {
		batch.err = w.failErr
		w.mu.Unlock()
		close(batch.done)
		return
	}
	w.mu.Unlock()

	t0 := time.Now()
	_, err := w.f.Write(data)
	if err == nil && w.sync {
		err = w.f.Sync()
	}
	walCommitSeconds.ObserveSince(t0)
	walCommitFrames.Observe(float64(nframes))
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrStoreBroken, err)
		w.mu.Lock()
		if w.failErr == nil {
			w.failErr = err
		}
		w.mu.Unlock()
	} else {
		w.size.Add(int64(len(data)))
		w.frames.Add(nframes)
		walFramesTotal.Add(nframes)
	}
	// Recycle the written buffer unless one outsized commit grew it:
	// pinning that forever would cost more than regrowing it.
	if cap(data) <= walBufKeep {
		w.spare = data[:0]
	}
	batch.err = err
	close(batch.done)
}

// appendRaw writes already-framed bytes (whole, CRC-verified frames)
// directly to the log and fsyncs — the replication follower's apply
// path, which must persist the leader's frames byte-identically rather
// than re-encode them. It must not be mixed with enqueue-based writes:
// the caller (a Replica) is the store's only writer.
func (w *wal) appendRaw(data []byte, nframes int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return fmt.Errorf("docstore: WAL closed")
	}
	if w.failErr != nil {
		return fmt.Errorf("docstore: WAL failed earlier: %w", w.failErr)
	}
	if len(w.buf) != 0 {
		return fmt.Errorf("docstore: appendRaw with queued writer frames pending")
	}
	t0 := time.Now()
	_, err := w.f.Write(data)
	if err == nil && w.sync {
		err = w.f.Sync()
	}
	walCommitSeconds.ObserveSince(t0)
	if err != nil {
		err = fmt.Errorf("%w: %w", ErrStoreBroken, err)
		w.failErr = err
		return err
	}
	w.size.Add(int64(len(data)))
	w.frames.Add(nframes)
	walFramesTotal.Add(nframes)
	return nil
}

// failed returns the latched commit failure, if any.
func (w *wal) failed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failErr
}

// flushNow waits for any pending batch to commit and then fsyncs the
// file — the durability barrier Flush offers NoSync stores. Writes
// stay ordered because only the committer goroutine ever writes.
func (w *wal) flushNow() error {
	if b := w.kick(); b != nil {
		<-b.done
		if b.err != nil {
			return b.err
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.done {
		return nil
	}
	if w.failErr != nil {
		return w.failErr
	}
	return w.f.Sync()
}

// reset empties the log after a snapshot compaction. The caller must
// guarantee no writer is in flight (the store holds its compaction
// lock exclusively).
func (w *wal) reset() error {
	w.mu.Lock()
	defer w.mu.Unlock()
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

// close stops the committer (draining pending records) and closes the
// file. Append after close fails.
func (w *wal) close() error {
	w.mu.Lock()
	if w.done {
		w.mu.Unlock()
		return nil
	}
	w.done = true
	w.mu.Unlock()
	close(w.wake)
	<-w.exit
	return w.f.Close()
}
