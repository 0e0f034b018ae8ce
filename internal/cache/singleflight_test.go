package cache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"privid/internal/table"
)

// inFlight returns the number of keys currently executing.
func (f *flight) inFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

func flightTable(n float64) *table.Table {
	s := table.MustSchema(table.Column{Name: "n", Type: table.DNumber})
	return table.FromRows(s, []table.Row{{table.N(n)}}).Freeze()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightDedup: N concurrent Do calls on one key execute fn once;
// every follower shares the leader's table by pointer.
func TestFlightDedup(t *testing.T) {
	f := newFlight()
	var execs atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	want := flightTable(7)
	fn := func(string) (*table.Table, bool) {
		execs.Add(1)
		close(entered)
		<-release
		return want, true
	}

	const n = 8
	results := make([]*table.Table, n)
	outcomes := make([]Outcome, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], _, outcomes[0] = f.do([]byte("k"), 0, fn)
	}()
	<-entered // leader is inside fn; everyone else must follow
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, outcomes[i] = f.do([]byte("k"), 0, fn)
		}(i)
	}
	waitFor(t, "followers to queue", func() bool { return f.stats().Waiting == n-1 })
	close(release)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("fn executed %d times, want 1", got)
	}
	leaders, followers := 0, 0
	for i := range results {
		if results[i] != want {
			t.Errorf("call %d got a different table pointer", i)
		}
		switch outcomes[i] {
		case Led:
			leaders++
		case Shared:
			followers++
		default:
			t.Errorf("call %d outcome %v", i, outcomes[i])
		}
	}
	if leaders != 1 || followers != n-1 {
		t.Errorf("leaders=%d followers=%d, want 1/%d", leaders, followers, n-1)
	}
	st := f.stats()
	if st.Leaders != 1 || st.Followers != n-1 || st.Handoffs != 0 || st.Timeouts != 0 {
		t.Errorf("stats = %+v", st)
	}
	if f.inFlight() != 0 {
		t.Errorf("call leaked: %d in flight", f.inFlight())
	}
}

// TestFlightHandoff: a leader whose execution fails (unclean) wakes
// its followers; the first retrier is promoted and executes, the rest
// share the new leader's clean result. The failed leader never wedges
// anyone.
func TestFlightHandoff(t *testing.T) {
	f := newFlight()
	var execs atomic.Int64
	entered := make(chan struct{})
	fail := make(chan struct{})
	want := flightTable(1)
	fn := func(string) (*table.Table, bool) {
		if execs.Add(1) == 1 {
			close(entered)
			<-fail
			return flightTable(0), false // unclean: timeout/panic fallback
		}
		return want, true
	}

	var leaderTbl *table.Table
	var leaderClean bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		leaderTbl, leaderClean, _ = f.do([]byte("k"), 0, fn)
	}()
	<-entered

	const n = 4
	var wg sync.WaitGroup
	results := make([]*table.Table, n)
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, outcomes[i] = f.do([]byte("k"), 0, fn)
		}(i)
	}
	waitFor(t, "followers to queue", func() bool { return f.stats().Waiting == n })
	close(fail)
	wg.Wait()
	<-done

	if leaderClean {
		t.Error("failed leader reported clean")
	}
	if leaderTbl == want {
		t.Error("failed leader shared the follower's table")
	}
	if got := execs.Load(); got != 2 {
		t.Fatalf("fn executed %d times, want 2 (failed leader + promoted follower)", got)
	}
	handoffs, shared := 0, 0
	for i := range results {
		if results[i] != want {
			t.Errorf("follower %d got wrong table", i)
		}
		switch outcomes[i] {
		case Handoff:
			handoffs++
		case Shared:
			shared++
		default:
			t.Errorf("follower %d outcome %v", i, outcomes[i])
		}
	}
	if handoffs != 1 || shared != n-1 {
		t.Errorf("handoffs=%d shared=%d, want 1/%d", handoffs, shared, n-1)
	}
	st := f.stats()
	if st.Leaders != 2 || st.Handoffs != 1 || st.Followers != uint64(n-1) {
		t.Errorf("stats = %+v", st)
	}
}

// TestFlightLeaderPanic: a panicking execution function still wakes
// followers (handoff) and propagates the panic to the leader only.
func TestFlightLeaderPanic(t *testing.T) {
	f := newFlight()
	entered := make(chan struct{})
	boom := make(chan struct{})
	want := flightTable(2)
	var calls atomic.Int64
	fn := func(string) (*table.Table, bool) {
		if calls.Add(1) == 1 {
			close(entered)
			<-boom
			panic("injected")
		}
		return want, true
	}

	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		f.do([]byte("k"), 0, fn)
	}()
	<-entered

	followerDone := make(chan *table.Table, 1)
	go func() {
		tbl, _, _ := f.do([]byte("k"), 0, fn)
		followerDone <- tbl
	}()
	waitFor(t, "follower to queue", func() bool { return f.stats().Waiting == 1 })
	close(boom)

	if r := <-panicked; r == nil {
		t.Error("leader panic swallowed")
	}
	select {
	case tbl := <-followerDone:
		if tbl != want {
			t.Error("follower got wrong table after leader panic")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower wedged by panicking leader")
	}
	if f.stats().Handoffs != 1 {
		t.Errorf("handoffs = %d, want 1", f.stats().Handoffs)
	}
}

// TestFlightFollowerTimeout: a follower that waits maxWait without a
// leader verdict executes on its own instead of blocking forever.
func TestFlightFollowerTimeout(t *testing.T) {
	f := newFlight()
	entered := make(chan struct{})
	stall := make(chan struct{})
	var execs atomic.Int64
	want := flightTable(3)
	fn := func(string) (*table.Table, bool) {
		if execs.Add(1) == 1 {
			close(entered)
			<-stall // leader stuck behind a pathological executable
		}
		return want, true
	}

	go f.do([]byte("k"), 0, fn)
	<-entered

	start := time.Now()
	tbl, clean, outcome := f.do([]byte("k"), 30*time.Millisecond, fn)
	if outcome != Abandoned {
		t.Fatalf("outcome = %v, want Abandoned", outcome)
	}
	if !clean || tbl != want {
		t.Errorf("abandoned follower result = %v/%v", tbl, clean)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Errorf("follower gave up after %v, before maxWait", waited)
	}
	if got := execs.Load(); got != 2 {
		t.Errorf("fn executed %d times, want 2", got)
	}
	if f.stats().Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", f.stats().Timeouts)
	}
	close(stall)
	waitFor(t, "leader to drain", func() bool { return f.inFlight() == 0 })
}

// TestFlightDistinctKeys: different keys never coalesce.
func TestFlightDistinctKeys(t *testing.T) {
	f := newFlight()
	var execs atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f.do([]byte{byte('a' + i)}, 0, func(string) (*table.Table, bool) {
				execs.Add(1)
				return flightTable(float64(i)), true
			})
		}(i)
	}
	wg.Wait()
	if got := execs.Load(); got != 4 {
		t.Errorf("fn executed %d times, want 4", got)
	}
	if st := f.stats(); st.Followers != 0 {
		t.Errorf("followers = %d, want 0", st.Followers)
	}
}

// TestFlightLeaderAloneAllocatesNoChannels pins the lazy channels: a
// leader nobody joins allocates its call and the key string the call
// and the stored entry share, and nothing else (eager done and token
// channels made two more), and the channels the first follower makes
// behave exactly as the eager ones did — a late follower shares a clean
// result, a failed leader hands off, and a follower that times out with
// a handoff token pending retires the call.
func TestFlightLeaderAloneAllocatesNoChannels(t *testing.T) {
	f := newFlight()
	want := flightTable(1)
	clean := func(string) (*table.Table, bool) { return want, true }
	if allocs := testing.AllocsPerRun(200, func() { f.do([]byte("alone"), time.Second, clean) }); allocs > 2 {
		t.Errorf("uncontended do allocates %v times, want 2 (the call and its key)", allocs)
	}

	// lead starts a leader on key and returns once it is inside fn; the
	// leader finishes with verdict when verdict is sent.
	lead := func(key string) (verdict chan bool, done chan struct{}) {
		verdict, done = make(chan bool), make(chan struct{})
		entered := make(chan struct{})
		go func() {
			defer close(done)
			f.do([]byte(key), 0, func(string) (*table.Table, bool) {
				close(entered)
				return want, <-verdict
			})
		}()
		<-entered
		return verdict, done
	}
	follow := func(key string, maxWait time.Duration) chan Outcome {
		out := make(chan Outcome, 1)
		waiting := f.stats().Waiting
		go func() {
			_, _, o := f.do([]byte(key), maxWait, clean)
			out <- o
		}()
		waitFor(t, "the follower to queue", func() bool { return f.stats().Waiting == waiting+1 })
		return out
	}

	verdict, done := lead("shared")
	out := follow("shared", 0)
	verdict <- true
	if o := <-out; o != Shared {
		t.Errorf("late follower of a clean leader: %v, want shared", o)
	}
	<-done

	verdict, done = lead("handoff")
	out = follow("handoff", 0)
	verdict <- false
	if o := <-out; o != Handoff {
		t.Errorf("follower of a failed leader: %v, want handoff", o)
	}
	<-done

	// The leader fails in the window between the follower's deadline
	// firing and the follower taking the lock: holding the lock across
	// the deadline and pushing the token by hand, as lead() would for a
	// call with a waiter, builds that interleaving deterministically.
	verdict, done = lead("pending")
	const maxWait = 20 * time.Millisecond
	out = follow("pending", maxWait)
	f.mu.Lock()
	time.Sleep(5 * maxWait)
	f.calls["pending"].token <- struct{}{}
	f.mu.Unlock()
	if o := <-out; o != Abandoned {
		t.Errorf("follower past its deadline: %v, want abandoned", o)
	}
	if _, ok := f.calls["pending"]; ok {
		t.Error("the call survived its last waiter with a token pending")
	}
	verdict <- true
	<-done
	if st := f.stats(); st.Waiting != 0 || f.inFlight() != 0 {
		t.Errorf("leaked: %+v, %d in flight", st, f.inFlight())
	}
}
