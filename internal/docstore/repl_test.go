package docstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"adahealth/internal/faultfs"
)

// dumpStore renders a store's full contents canonically (per
// collection, documents in insertion order, JSON-encoded) so two
// stores can be compared byte-for-byte.
func dumpStore(t *testing.T, s *Store) []byte {
	t.Helper()
	out := map[string][]Document{}
	for _, name := range s.CollectionNames() {
		docs := s.Collection(name).Find(nil)
		if len(docs) > 0 {
			out[name] = docs
		}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		t.Fatalf("marshaling dump: %v", err)
	}
	return raw
}

// shipAll drains the leader's durable WAL into the replica, asserting
// the replica tracks positions correctly. Returns the leader position.
func shipAll(t *testing.T, leader *Store, rep *Replica) ReplPosition {
	t.Helper()
	rd, err := leader.WALReader()
	if err != nil {
		t.Fatalf("WALReader: %v", err)
	}
	for {
		pos := rep.Position()
		data, lpos, err := rd.Read(pos.Epoch, pos.Offset, 0)
		if err != nil {
			t.Fatalf("reading WAL at %+v: %v", pos, err)
		}
		if len(data) == 0 {
			return lpos
		}
		consumed, _, err := rep.ApplyFrames(data)
		if err != nil {
			t.Fatalf("applying frames: %v", err)
		}
		if consumed != len(data) {
			t.Fatalf("partial consume of whole frames: %d of %d", consumed, len(data))
		}
	}
}

// bootstrap installs the leader's snapshot state into the replica.
func bootstrap(t *testing.T, leader *Store, rep *Replica) {
	t.Helper()
	pos, files, err := leader.SnapshotBootstrap()
	if err != nil {
		t.Fatalf("SnapshotBootstrap: %v", err)
	}
	if err := rep.InstallSnapshot(pos.Epoch, files); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
}

func TestReplShipFramesConverges(t *testing.T) {
	leaderDir, repDir := t.TempDir(), t.TempDir()
	leader, err := Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	rep, err := OpenReplica(Options{Dir: repDir})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	bootstrap(t, leader, rep) // epoch 0, empty snapshot set

	people := leader.Collection("people")
	ids := make([]string, 0, 20)
	for i := 0; i < 20; i++ {
		id, err := people.Insert(Document{"n": i, "dataset": fmt.Sprintf("d%d", i%3)})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := people.Update(ids[3], Document{"n": 333}); err != nil {
		t.Fatal(err)
	}
	if err := people.Delete(ids[7]); err != nil {
		t.Fatal(err)
	}
	// A batch is N ordinary frames on the wire: it ships, counts and
	// replays like the single writes around it.
	b := leader.Begin()
	if _, err := b.Insert(people, Document{"n": 20, "dataset": "d0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Upsert(people, Document{"_id": "p-explicit", "n": 21, "dataset": "d1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Upsert(people, Document{"_id": ids[5], "n": 555, "dataset": "d9"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Update(people, ids[0], Document{"n": -1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete(people, ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(); err != nil {
		t.Fatal(err)
	}

	lpos := shipAll(t, leader, rep)
	if got := rep.Position(); got != lpos {
		t.Fatalf("replica position %+v != leader %+v", got, lpos)
	}
	if lpos.Frames != 27 {
		t.Fatalf("leader frames = %d, want 27", lpos.Frames)
	}
	if want, got := dumpStore(t, leader), dumpStore(t, rep.Store()); !reflect.DeepEqual(want, got) {
		t.Fatalf("replica diverged:\nleader  %s\nreplica %s", want, got)
	}
	// The follower's log is the leader's durable log, byte for byte.
	want, err := os.ReadFile(filepath.Join(leaderDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(repDir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("follower wal.log (%d bytes) is not byte-equal to the leader's (%d bytes)", len(got), len(want))
	}
}

func TestReplReaderRejectsStaleEpochAfterCompaction(t *testing.T) {
	leader, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := leader.Collection("c").Insert(Document{"x": 1}); err != nil {
		t.Fatal(err)
	}
	before := leader.ReplStatus()
	if before.Epoch != 0 || before.Offset == 0 {
		t.Fatalf("unexpected pre-compaction status %+v", before)
	}
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	after := leader.ReplStatus()
	if after.Epoch != 1 || after.Offset != 0 || after.Frames != 0 {
		t.Fatalf("post-compaction status %+v, want epoch 1 at offset 0", after)
	}
	rd, err := leader.WALReader()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rd.Read(before.Epoch, 0, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("stale-epoch read error = %v, want ErrCompacted", err)
	}
	// An offset past the durable log (diverged peer) is also gone.
	if _, _, err := rd.Read(after.Epoch, 10_000, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("past-end read error = %v, want ErrCompacted", err)
	}
}

func TestReplEmptyCompactionKeepsEpoch(t *testing.T) {
	leader, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := leader.Collection("c").Insert(Document{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := leader.Compact(); err != nil { // nothing new: must not bump
		t.Fatal(err)
	}
	if got := leader.Epoch(); got != 1 {
		t.Fatalf("epoch after empty compaction = %d, want 1", got)
	}
}

func TestReplBootstrapAcrossCompactionBoundary(t *testing.T) {
	leaderDir := t.TempDir()
	leader, err := Open(leaderDir)
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()

	c := leader.Collection("c")
	for i := 0; i < 10; i++ {
		if _, err := c.Insert(Document{"phase": "pre", "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Insert(Document{"phase": "post", "n": i}); err != nil {
			t.Fatal(err)
		}
	}

	// Follower arrives after the compaction: snapshot bootstrap hands
	// it the epoch-start state, the WAL tail the rest.
	rep, err := OpenReplica(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	if !rep.NeedsBootstrap() {
		t.Fatal("fresh replica should need bootstrap")
	}
	bootstrap(t, leader, rep)
	if rep.Epoch() != 1 {
		t.Fatalf("replica epoch = %d, want 1", rep.Epoch())
	}
	if got := rep.Store().Collection("c").Count(); got != 10 {
		t.Fatalf("post-bootstrap count = %d, want the 10 snapshotted docs", got)
	}
	shipAll(t, leader, rep)
	if want, got := dumpStore(t, leader), dumpStore(t, rep.Store()); !reflect.DeepEqual(want, got) {
		t.Fatalf("replica diverged after boundary catch-up")
	}

	// A second compaction while the follower is attached: its old
	// position dies (ErrCompacted), a re-bootstrap re-converges.
	for i := 0; i < 3; i++ {
		if _, err := c.Insert(Document{"phase": "late", "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.Compact(); err != nil {
		t.Fatal(err)
	}
	rd, _ := leader.WALReader()
	pos := rep.Position()
	if _, _, err := rd.Read(pos.Epoch, pos.Offset, 0); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read at stale position = %v, want ErrCompacted", err)
	}
	bootstrap(t, leader, rep)
	shipAll(t, leader, rep)
	if want, got := dumpStore(t, leader), dumpStore(t, rep.Store()); !reflect.DeepEqual(want, got) {
		t.Fatalf("replica diverged after re-bootstrap")
	}
}

func TestReplicaRestartResumesAtDurableOffset(t *testing.T) {
	leader, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	repDir := t.TempDir()
	rep, err := OpenReplica(Options{Dir: repDir})
	if err != nil {
		t.Fatal(err)
	}
	bootstrap(t, leader, rep)

	c := leader.Collection("c")
	for i := 0; i < 8; i++ {
		if _, err := c.Insert(Document{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	// Ship only half the durable log, then "kill" the replica.
	rd, _ := leader.WALReader()
	data, _, err := rd.Read(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	half := splitAtFrame(t, data, 4)
	if _, _, err := rep.ApplyFrames(data[:half]); err != nil {
		t.Fatal(err)
	}
	mid := rep.Position()
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the reopen path must recover exactly the applied prefix
	// and resume from it — no duplicates, no loss.
	rep2, err := OpenReplica(Options{Dir: repDir})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	if got := rep2.Position(); got != mid {
		t.Fatalf("restarted replica position %+v, want %+v", got, mid)
	}
	if got := rep2.Store().Collection("c").Count(); got != 4 {
		t.Fatalf("restarted replica count = %d, want 4", got)
	}
	shipAll(t, leader, rep2)
	if got := rep2.Store().Collection("c").Count(); got != 8 {
		t.Fatalf("caught-up replica count = %d, want 8", got)
	}
	if want, got := dumpStore(t, leader), dumpStore(t, rep2.Store()); !reflect.DeepEqual(want, got) {
		t.Fatalf("replica diverged after restart catch-up")
	}
}

// splitAtFrame returns the byte offset just past the nth frame.
func splitAtFrame(t *testing.T, data []byte, n int) int {
	t.Helper()
	off := 0
	for i := 0; i < n; i++ {
		if len(data)-off < walFrameHeader {
			t.Fatalf("fewer than %d frames in %d bytes", n, len(data))
		}
		length := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += walFrameHeader + length
	}
	return off
}

func TestReplicaTornAndPartialFrames(t *testing.T) {
	leader, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	rep, err := OpenReplica(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	bootstrap(t, leader, rep)

	c := leader.Collection("c")
	for i := 0; i < 3; i++ {
		if _, err := c.Insert(Document{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	rd, _ := leader.WALReader()
	data, _, err := rd.Read(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	// A keepalive heartbeat between frames is consumed, not persisted.
	withKeepalive := append(append([]byte{}, data[:splitAtFrame(t, data, 1)]...), KeepaliveFrame()...)
	withKeepalive = append(withKeepalive, data[splitAtFrame(t, data, 1):]...)

	// Offer the stream in dribbles: partial frames must stay
	// unconsumed until completed.
	applied := 0
	buf := []byte{}
	for i := 0; i < len(withKeepalive); i += 5 {
		end := i + 5
		if end > len(withKeepalive) {
			end = len(withKeepalive)
		}
		buf = append(buf, withKeepalive[i:end]...)
		consumed, n, err := rep.ApplyFrames(buf)
		if err != nil {
			t.Fatalf("ApplyFrames: %v", err)
		}
		applied += int(n)
		buf = buf[consumed:]
	}
	if len(buf) != 0 || applied != 3 {
		t.Fatalf("leftover %d bytes, %d applied; want 0 and 3", len(buf), applied)
	}
	if got := rep.Position().Offset; got != int64(len(data)) {
		t.Fatalf("replica offset %d, want %d (keepalives must not persist)", got, len(data))
	}

	// A frame whose CRC does not hold aborts the stream: bytes before
	// it apply, the corrupt one does not.
	if _, err := c.Insert(Document{"n": 99}); err != nil {
		t.Fatal(err)
	}
	pos := rep.Position()
	tail, _, err := rd.Read(pos.Epoch, pos.Offset, 0)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte{}, tail...)
	corrupt[len(corrupt)-1] ^= 0xff
	if _, _, err := rep.ApplyFrames(corrupt); err == nil {
		t.Fatal("corrupt frame applied without error")
	}
	// Reconnect semantics: re-request from the durable position and
	// re-apply cleanly.
	if _, _, err := rep.ApplyFrames(tail); err != nil {
		t.Fatal(err)
	}
	if want, got := dumpStore(t, leader), dumpStore(t, rep.Store()); !reflect.DeepEqual(want, got) {
		t.Fatalf("replica diverged after torn-frame recovery")
	}
}

func TestReplicaInterruptedInstallWipes(t *testing.T) {
	dir := t.TempDir()
	rep, err := OpenReplica(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	leader, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	if _, err := leader.Collection("c").Insert(Document{"x": 1}); err != nil {
		t.Fatal(err)
	}
	bootstrap(t, leader, rep)
	shipAll(t, leader, rep)
	if err := rep.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-install: the negative epoch marker is on
	// disk next to (now untrustworthy) state files.
	if err := writeReplMeta(faultfs.OS(), dir, -1); err != nil {
		t.Fatal(err)
	}
	rep2, err := OpenReplica(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	if !rep2.NeedsBootstrap() {
		t.Fatal("replica with interrupted install must need bootstrap")
	}
	if got := rep2.Store().Collection("c").Count(); got != 0 {
		t.Fatalf("partial state survived the wipe: %d docs", got)
	}
	bootstrap(t, leader, rep2)
	shipAll(t, leader, rep2)
	if want, got := dumpStore(t, leader), dumpStore(t, rep2.Store()); !reflect.DeepEqual(want, got) {
		t.Fatalf("replica diverged after re-bootstrap")
	}
}

func TestReplicaReapplyIsIdempotent(t *testing.T) {
	leader, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer leader.Close()
	rep, err := OpenReplica(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	bootstrap(t, leader, rep)

	c := leader.Collection("c")
	id, err := c.Insert(Document{"n": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Update(id, Document{"n": 2}); err != nil {
		t.Fatal(err)
	}
	rd, _ := leader.WALReader()
	data, _, err := rd.Read(0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rep.ApplyFrames(data); err != nil {
		t.Fatal(err)
	}
	// A leader that re-ships after a reconnect from an older offset
	// must not corrupt state: upsert/ignore-missing semantics absorb
	// the duplicates.
	if _, _, err := rep.ApplyFrames(data); err != nil {
		t.Fatal(err)
	}
	docs := rep.Store().Collection("c").Find(nil)
	if len(docs) != 1 {
		t.Fatalf("%d docs after duplicate re-apply, want 1", len(docs))
	}
	if got, _ := docs[0]["n"].(float64); got != 2 {
		t.Fatalf("doc n = %v, want 2", docs[0]["n"])
	}
}
