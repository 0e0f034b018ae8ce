package server

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestPruneKeepsLiveJobsInOrder: at MaxFinishedJobs = 3, pruning drops
// exactly the jobs the original rule drops — the oldest terminal one
// while more than three are retained — however many queued or running
// jobs precede it, never a live one, and the listing stays in
// submission order. The reference model is that rule written out.
func TestPruneKeepsLiveJobsInOrder(t *testing.T) {
	const maxFinished = 3
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &Scheduler{opts: SchedulerOptions{MaxFinishedJobs: maxFinished}, jobs: map[string]*job{}}
		var ref []string // every retained id, submission order
		done := map[string]bool{}
		var live []string
		for step := 0; step < 400; step++ {
			if len(live) == 0 || len(live) < 6 && rng.Intn(2) == 0 {
				id := fmt.Sprintf("q-%06d", step)
				state := JobQueued
				if rng.Intn(2) == 0 {
					state = JobRunning
				}
				s.mu.Lock()
				s.jobs[id] = &job{info: JobInfo{ID: id, State: state}}
				s.order = append(s.order, id)
				s.mu.Unlock()
				ref, live = append(ref, id), append(live, id)
				continue
			}
			k := rng.Intn(len(live))
			id := live[k]
			live = slices.Delete(live, k, k+1)
			state := JobDone
			if rng.Intn(3) == 0 {
				state = JobFailed
			}
			s.mu.Lock()
			s.jobs[id].info.State = state
			s.finished++
			s.pruneLocked()
			s.mu.Unlock()

			done[id] = true
			finished := 0
			for _, r := range ref {
				if done[r] {
					finished++
				}
			}
			for finished > maxFinished {
				i := slices.IndexFunc(ref, func(r string) bool { return done[r] })
				ref = slices.Delete(ref, i, i+1)
				finished--
			}

			var got []string
			for _, info := range s.Jobs("") {
				got = append(got, info.ID)
			}
			if !slices.Equal(got, ref) {
				t.Fatalf("seed %d step %d: retained %v, want %v", seed, step, got, ref)
			}
			for _, l := range live {
				if _, ok := s.Job(l); !ok {
					t.Fatalf("seed %d step %d: live job %s dropped", seed, step, l)
				}
			}
		}
	}
}
