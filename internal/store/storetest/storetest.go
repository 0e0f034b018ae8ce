// Package storetest exports the WAL fault injector used by the
// crash-recovery matrix, so other packages (internal/sim's chaos
// layer, future distributed-store tests) can tear writes, fail fsyncs
// and break rollbacks without duplicating it.
//
// Install a FaultyFile through store.Options.WrapFile (or
// core.Options.WrapWALFile, which plumbs through to it):
//
//	var ff *storetest.FaultyFile
//	w, _ := store.Open(dir, store.Options{
//		WrapFile: func(f store.File) store.File {
//			ff = storetest.Wrap(f)
//			return ff
//		},
//	})
//	ff.TearNextWrite(13) // next commit tears after 13 bytes
//
// The injector is safe for concurrent use: each group-commit batch is
// written from whichever committing goroutine leads it, while a chaos
// controller flips fault modes.
package storetest

import (
	"errors"
	"sync"

	"privid/internal/store"
)

// ErrInjected is the error every injected fault returns, so tests can
// distinguish injected failures from real I/O errors.
var ErrInjected = errors.New("injected I/O failure")

// FaultyFile wraps a WAL file handle and fails on command, simulating
// a crash mid-commit: short writes (torn records), write errors,
// failing fsyncs, and a failing rollback truncate (so the torn bytes
// stay on disk, as after a power loss).
//
// The zero fault state passes everything through. Mutate the fault
// mode with the setter methods (concurrency-safe) or — for
// single-goroutine tests — the exported fields guarded by Mu.
type FaultyFile struct {
	store.File

	// Mu guards the fault-mode fields below.
	Mu sync.Mutex
	// FailWriteAfter injects a write error after passing this many
	// bytes of the next write through (-1 = writes succeed). The torn
	// prefix is fsynced, like a power cut mid-page.
	FailWriteAfter int
	// FailSync makes Sync return an error (the bytes of prior writes
	// may or may not be durable — here they are, which recovery must
	// tolerate).
	FailSync bool
	// FailNextSync makes only the next Sync fail, then clears itself:
	// the commit's fsync fails and the rollback's succeeds.
	FailNextSync bool
	// FailTruncate makes the post-error rollback fail, leaving the
	// torn record on disk.
	FailTruncate bool
}

// Wrap returns a healthy FaultyFile around f.
func Wrap(f store.File) *FaultyFile {
	return &FaultyFile{File: f, FailWriteAfter: -1}
}

// TearNextWrite makes the next write tear after n bytes (the torn
// prefix is made durable) and return ErrInjected.
func (f *FaultyFile) TearNextWrite(n int) {
	f.Mu.Lock()
	f.FailWriteAfter = n
	f.Mu.Unlock()
}

// FailAll simulates a dying disk: every write tears at zero bytes,
// every fsync fails, and rollbacks fail too. Used by chaos crashes to
// guarantee no further commit can be acked before the process is
// abandoned.
func (f *FaultyFile) FailAll() {
	f.Mu.Lock()
	f.FailWriteAfter = 0
	f.FailSync = true
	f.FailTruncate = true
	f.Mu.Unlock()
}

// Heal restores pass-through behavior.
func (f *FaultyFile) Heal() {
	f.Mu.Lock()
	f.FailWriteAfter = -1
	f.FailSync = false
	f.FailNextSync = false
	f.FailTruncate = false
	f.Mu.Unlock()
}

func (f *FaultyFile) Write(p []byte) (int, error) {
	f.Mu.Lock()
	after := f.FailWriteAfter
	f.Mu.Unlock()
	if after < 0 {
		return f.File.Write(p)
	}
	n := after
	if n > len(p) {
		n = len(p)
	}
	if n > 0 {
		if _, err := f.File.Write(p[:n]); err != nil {
			return 0, err
		}
		f.File.Sync() // make the torn prefix durable, like a power cut mid-page
	}
	return n, ErrInjected
}

func (f *FaultyFile) Sync() error {
	f.Mu.Lock()
	fail := f.FailSync || f.FailNextSync
	f.FailNextSync = false
	f.Mu.Unlock()
	if fail {
		return ErrInjected
	}
	return f.File.Sync()
}

func (f *FaultyFile) Truncate(size int64) error {
	f.Mu.Lock()
	fail := f.FailTruncate
	f.Mu.Unlock()
	if fail {
		return ErrInjected
	}
	return f.File.Truncate(size)
}
