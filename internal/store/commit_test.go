package store_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"privid/internal/store"
	"privid/internal/store/storetest"
)

// The group-commit protocol: whoever finds no write in flight leads the
// next batch on its own goroutine, and commits arriving while a write
// is in flight join the batch after it.

// gatedFile is a storetest.FaultyFile that counts writes and fsyncs and
// can hold one fsync until released, so a test can queue commits behind
// a leader whose fsync is in flight.
type gatedFile struct {
	*storetest.FaultyFile

	mu            sync.Mutex
	writes, syncs int
	entered, hold chan struct{} // armed: the next Sync closes entered and waits on hold
}

func (g *gatedFile) Write(p []byte) (int, error) {
	g.mu.Lock()
	g.writes++
	g.mu.Unlock()
	return g.FaultyFile.Write(p)
}

func (g *gatedFile) Sync() error {
	g.mu.Lock()
	g.syncs++
	entered, hold := g.entered, g.hold
	g.entered, g.hold = nil, nil
	g.mu.Unlock()
	if hold != nil {
		close(entered)
		<-hold
	}
	return g.FaultyFile.Sync()
}

// holdNextSync arms the gate: the next Sync blocks until release is
// called. It returns a channel closed once that Sync has been entered.
func (g *gatedFile) holdNextSync() (entered <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, h := make(chan struct{}), make(chan struct{})
	g.entered, g.hold = e, h
	return e, func() { close(h) }
}

func (g *gatedFile) counts() (writes, syncs int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.writes, g.syncs
}

// openGated opens a WAL in dir over a gatedFile.
func openGated(t *testing.T, dir string) (*store.WAL, *gatedFile) {
	t.Helper()
	var g *gatedFile
	w, err := store.Open(dir, store.Options{WrapFile: func(f store.File) store.File {
		g = &gatedFile{FaultyFile: storetest.Wrap(f)}
		return g
	}})
	if err != nil {
		t.Fatal(err)
	}
	return w, g
}

// stageBatch starts a leader commit on camera "lead" whose fsync blocks,
// then n commits (camera "cNN", frame 0) that queue behind it. It
// returns once all n are pending, with release to let the leader's
// fsync finish and the channels the leader's and the followers'
// outcomes arrive on.
func stageBatch(t *testing.T, w *store.WAL, g *gatedFile, n int) (release func(), lead <-chan error, follow <-chan error) {
	t.Helper()
	entered, release := g.holdNextSync()
	leadc, followc := make(chan error, 1), make(chan error, n)
	go func() { leadc <- w.Commit(chargeRec("lead", 0, 1, 1)) }()
	<-entered
	for i := range n {
		go func() { followc <- w.Commit(chargeRec(fmt.Sprintf("c%02d", i), 0, 1, 1)) }()
	}
	waitFor(t, func() bool { return w.PendingCommits() == n })
	return release, leadc, followc
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 10s")
		}
	}
}

// TestOpenStartsNoGoroutine: a WAL commits on its callers' goroutines;
// opening one (even with the deprecated GroupCommit flag set) starts
// nothing that outlives the call.
func TestOpenStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	w, err := store.Open(t.TempDir(), store.Options{GroupCommit: true})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Commit(chargeRec("camA", 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after Open and Commit, %d before", after, before)
	}
}

// TestGroupCommitBatchesDuringSync: the commits that arrive while a
// leader's fsync is in flight land in exactly one more write and one
// more fsync, and every one is acked and recovered.
func TestGroupCommitBatchesDuringSync(t *testing.T) {
	const n = 8
	dir := t.TempDir()
	w, g := openGated(t, dir)
	release, lead, follow := stageBatch(t, w, g, n)
	if writes, syncs := g.counts(); writes != 1 || syncs != 1 {
		t.Fatalf("before release: %d writes, %d fsyncs, want 1 and 1", writes, syncs)
	}
	release()
	if err := <-lead; err != nil {
		t.Fatalf("leader: %v", err)
	}
	for range n {
		if err := <-follow; err != nil {
			t.Fatalf("follower: %v", err)
		}
	}
	if writes, syncs := g.counts(); writes != 2 || syncs != 2 {
		t.Fatalf("%d commits took %d writes and %d fsyncs, want 2 and 2", n+1, writes, syncs)
	}
	// Abandon w (no Close): the acked records must be in the log itself.
	st, err := store.ReadState(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Cameras()); got != n+1 {
		t.Fatalf("recovered %d cameras, want %d", got, n+1)
	}
	w.Close()
}

// TestBatchWriteErrorReachesEveryMember: a torn write of a multi-commit
// batch fails every member of it (the rollback leaves none on disk),
// and a commit after the fault heals succeeds.
func TestBatchWriteErrorReachesEveryMember(t *testing.T) {
	const n = 5
	dir := t.TempDir()
	w, g := openGated(t, dir)
	release, lead, follow := stageBatch(t, w, g, n)
	g.TearNextWrite(13) // the followers' batch tears; the rollback succeeds
	release()
	if err := <-lead; err != nil {
		t.Fatalf("leader (written before the fault): %v", err)
	}
	for range n {
		if err := <-follow; !errors.Is(err, storetest.ErrInjected) {
			t.Fatalf("batch member: %v, want the injected write error", err)
		}
	}
	if writes, _ := g.counts(); writes != 2 {
		t.Fatalf("%d writes, want 2: the leader's and one for the whole batch", writes)
	}
	g.Heal()
	if err := w.Commit(chargeRec("healed", 0, 1, 1)); err != nil {
		t.Fatalf("healed commit: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.ReadState(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(st.Cameras()); got != "[healed lead]" {
		t.Fatalf("recovered cameras %s, want [healed lead]", got)
	}
}

// TestCloseDrainsConcurrentCommits: Close writes every commit already
// queued before it snapshots, and each commit racing it either returns
// nil and is recovered or returns ErrClosed and is not (each racer's
// frames after its last acked one stay unspent) — with nothing
// deadlocking.
func TestCloseDrainsConcurrentCommits(t *testing.T) {
	dir := t.TempDir()
	w, g := openGated(t, dir)

	// Four commits wait behind a held fsync when Close starts: Close
	// must write them, not refuse them. Racers commit until refused.
	const queued, racers = 4, 8
	release, lead, follow := stageBatch(t, w, g, queued)
	acked := make([]int64, racers)
	var wg sync.WaitGroup
	for r := range racers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); ; i++ {
				err := w.Commit(chargeRec(fmt.Sprintf("r%02d", r), i, i+1, 1))
				if errors.Is(err, store.ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("racer %d: %v", r, err)
					return
				}
				acked[r]++
			}
		}()
	}
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	release()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("commits racing Close deadlocked")
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-lead; err != nil {
		t.Fatalf("leader: %v", err)
	}
	for range queued {
		if err := <-follow; err != nil {
			t.Fatalf("commit queued before Close: %v", err)
		}
	}

	st, err := store.ReadState(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range queued {
		if st.Spent(fmt.Sprintf("c%02d", i), 0) != 1 {
			t.Fatalf("queued commit c%02d lost", i)
		}
	}
	for r, n := range acked {
		cam := fmt.Sprintf("r%02d", r)
		for i := int64(0); i <= n; i++ {
			if want, got := float64(min(1, n-i)), st.Spent(cam, i); got != want {
				t.Fatalf("%s frame %d: recovered %v, want %v (%d commits acked)", cam, i, got, want, n)
			}
		}
	}
}
