// Package faultfs is the filesystem seam of the storage engine: an FS
// interface the docstore threads every disk operation through, a
// pass-through OS implementation for production, and a deterministic
// fault-injecting wrapper for tests.
//
// The injector exists so every error path of the WAL and snapshot
// machinery is testable without real disk failures: rules select an
// operation kind (open/read/write/sync/rename/...), optionally a path
// substring, and fire after a count, for a count, or with a seeded
// probability — so a fault schedule is reproducible run to run. A rule
// can return any error (ENOSPC included), tear a write after a byte
// prefix, or merely delay the operation (slow I/O).
package faultfs

import (
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"sync"
	"syscall"
	"time"
)

// FS is the set of filesystem operations the storage engine performs.
// Implementations must be safe for concurrent use.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Create truncate-creates name (os.Create semantics).
	Create(name string) (File, error)
	// Open opens name read-only (also used to fsync directories).
	Open(name string) (File, error)
	// Rename atomically renames oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes name (cleanup of abandoned temp files).
	Remove(name string) error
	// ReadFile reads the whole file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
}

// File is the per-file surface the storage engine uses.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Name() string
}

// OS returns the real-filesystem implementation.
func OS() FS { return osFS{} }

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Create(name string) (File, error)             { return os.Create(name) }
func (osFS) Open(name string) (File, error)               { return os.Open(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// Op is one injectable fault point.
type Op string

const (
	OpOpen     Op = "open"   // OpenFile, Create, Open
	OpRead     Op = "read"   // File.Read, ReadFile
	OpWrite    Op = "write"  // File.Write
	OpSync     Op = "sync"   // File.Sync
	OpRename   Op = "rename" // Rename
	OpTruncate Op = "truncate"
)

// ErrInjected is the default injected failure.
var ErrInjected = errors.New("faultfs: injected fault")

// ENOSPC returns a disk-full error as the OS would surface it.
func ENOSPC() error { return &os.PathError{Op: "write", Path: "faultfs", Err: syscall.ENOSPC} }

// Rule selects when a fault fires and what it does. The zero values
// widen the match: empty Path matches every path, After 0 fires from
// the first matching operation, Count 0 never exhausts, Prob 0 fires
// unconditionally.
type Rule struct {
	// Op is the operation kind the rule arms.
	Op Op
	// Path, when non-empty, restricts the rule to paths containing it.
	Path string
	// After lets this many matching operations through before arming.
	After int
	// Count caps how many times the rule fires (0 = unlimited).
	Count int
	// Prob fires the armed rule with this probability per matching
	// operation, drawn from the injector's seeded source (0 = always).
	Prob float64
	// Err is the injected error (nil selects ErrInjected). Ignored for
	// pure-delay rules (Delay > 0 with TornBytes 0 and Err nil).
	Err error
	// TornBytes, on OpWrite, writes this many bytes of the payload
	// through before failing — a torn write.
	TornBytes int
	// Delay sleeps before the operation proceeds (slow I/O). A rule
	// with only Delay set slows the operation without failing it.
	Delay time.Duration
}

// delayOnly reports whether the rule slows operations without failing
// them.
func (r Rule) delayOnly() bool { return r.Delay > 0 && r.Err == nil && r.TornBytes == 0 }

// fault is one fired fault's effect.
type fault struct {
	delay time.Duration
	torn  int // >= 0: write this prefix then fail (only with err)
	err   error
}

// Injector wraps an FS with deterministic fault injection. All methods
// are safe for concurrent use; rule matching and the probability draw
// happen under one lock, so a fixed seed and a fixed operation order
// give an identical fault schedule.
type Injector struct {
	inner FS

	mu    sync.Mutex
	rng   *rand.Rand
	rules []*armedRule
	fired int
}

type armedRule struct {
	Rule
	seen  int // matching operations observed
	shots int // times fired
}

// New wraps inner (nil selects the real OS) with a fault injector whose
// probability draws are seeded by seed.
func New(inner FS, seed int64) *Injector {
	if inner == nil {
		inner = OS()
	}
	return &Injector{inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// Inject arms a rule; returns the injector for chaining.
func (i *Injector) Inject(r Rule) *Injector {
	i.mu.Lock()
	i.rules = append(i.rules, &armedRule{Rule: r})
	i.mu.Unlock()
	return i
}

// Clear disarms every rule — the fault "healing" transition of a chaos
// scenario. In-flight operations that already drew a fault still fail.
func (i *Injector) Clear() {
	i.mu.Lock()
	i.rules = nil
	i.mu.Unlock()
}

// Fired reports how many faults have been injected so far (delay-only
// rules included).
func (i *Injector) Fired() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired
}

// check consults the rules for one operation. The first matching rule
// that fires wins; delay-only rules stack their delay but let the
// operation continue to later rules.
func (i *Injector) check(op Op, path string) fault {
	i.mu.Lock()
	defer i.mu.Unlock()
	var f fault
	f.torn = -1
	for _, r := range i.rules {
		if r.Op != op || (r.Path != "" && !containsPath(path, r.Path)) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.shots >= r.Count {
			continue
		}
		if r.Prob > 0 && i.rng.Float64() >= r.Prob {
			continue
		}
		r.shots++
		i.fired++
		f.delay += r.Delay
		if r.delayOnly() {
			continue
		}
		f.err = r.Err
		if f.err == nil {
			f.err = ErrInjected
		}
		if op == OpWrite {
			f.torn = r.TornBytes
		}
		return f
	}
	return f
}

func containsPath(path, sub string) bool {
	return len(sub) <= len(path) && (sub == path || indexOf(path, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func (f fault) apply() error {
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	return f.err
}

// --- FS interface -----------------------------------------------------------

func (i *Injector) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if err := i.check(OpOpen, name).apply(); err != nil {
		return nil, err
	}
	f, err := i.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: f, fs: i}, nil
}

func (i *Injector) Create(name string) (File, error) {
	if err := i.check(OpOpen, name).apply(); err != nil {
		return nil, err
	}
	f, err := i.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: f, fs: i}, nil
}

func (i *Injector) Open(name string) (File, error) {
	if err := i.check(OpOpen, name).apply(); err != nil {
		return nil, err
	}
	f, err := i.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: f, fs: i}, nil
}

func (i *Injector) Rename(oldpath, newpath string) error {
	if err := i.check(OpRename, newpath).apply(); err != nil {
		return err
	}
	return i.inner.Rename(oldpath, newpath)
}

func (i *Injector) Remove(name string) error { return i.inner.Remove(name) }

func (i *Injector) ReadFile(name string) ([]byte, error) {
	if err := i.check(OpRead, name).apply(); err != nil {
		return nil, err
	}
	return i.inner.ReadFile(name)
}

func (i *Injector) ReadDir(name string) ([]fs.DirEntry, error) { return i.inner.ReadDir(name) }

func (i *Injector) MkdirAll(path string, perm os.FileMode) error {
	return i.inner.MkdirAll(path, perm)
}

// faultFile threads per-file operations back through the injector's
// rules, using the file's name as the rule path.
type faultFile struct {
	inner File
	fs    *Injector
}

func (f *faultFile) Name() string                       { return f.inner.Name() }
func (f *faultFile) Stat() (os.FileInfo, error)         { return f.inner.Stat() }
func (f *faultFile) Close() error                       { return f.inner.Close() }
func (f *faultFile) Seek(o int64, w int) (int64, error) { return f.inner.Seek(o, w) }

func (f *faultFile) Read(p []byte) (int, error) {
	if err := f.fs.check(OpRead, f.inner.Name()).apply(); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

func (f *faultFile) Write(p []byte) (int, error) {
	fl := f.fs.check(OpWrite, f.inner.Name())
	if fl.delay > 0 {
		time.Sleep(fl.delay)
	}
	if fl.err != nil {
		n := 0
		if fl.torn > 0 {
			// A torn write: part of the payload reaches the disk before
			// the failure, exactly what a crash mid-write leaves behind.
			torn := fl.torn
			if torn > len(p) {
				torn = len(p)
			}
			n, _ = f.inner.Write(p[:torn])
		}
		return n, fl.err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if err := f.fs.check(OpSync, f.inner.Name()).apply(); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if err := f.fs.check(OpTruncate, f.inner.Name()).apply(); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}
