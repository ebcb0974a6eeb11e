package service

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

// drain receives whatever a subscription holds right now, and whether
// the channel was closed behind it.
func drain(ch <-chan int) (got []int, closed bool) {
	for {
		select {
		case v, open := <-ch:
			if !open {
				return got, true
			}
			got = append(got, v)
		default:
			return got, false
		}
	}
}

// TestFeedBoundedReplay: a bounded feed replays only its newest events
// to a new subscriber, then delivers live ones in order.
func TestFeedBoundedReplay(t *testing.T) {
	f := NewFeed[int](3)
	for i := 0; i < 5; i++ {
		f.Publish(i)
	}
	ch, cancel := f.Subscribe()
	if got, closed := drain(ch); !reflect.DeepEqual(got, []int{2, 3, 4}) || closed {
		t.Fatalf("replay = %v (closed %v), want [2 3 4] on an open channel", got, closed)
	}
	f.Publish(5)
	if got, _ := drain(ch); !reflect.DeepEqual(got, []int{5}) {
		t.Fatalf("live delivery = %v, want [5]", got)
	}
	if got := f.History(); !reflect.DeepEqual(got, []int{3, 4, 5}) {
		t.Fatalf("history = %v, want [3 4 5]", got)
	}
	cancel()
	cancel() // idempotent
	if _, closed := drain(ch); !closed {
		t.Fatal("cancel left the subscription open")
	}
}

// TestFeedClosesOnce: Close closes every subscription after the events
// published before it, drops later publishes, and hands a later
// subscriber the history on a closed channel; repeated Close and a
// cancel after Close are no-ops.
func TestFeedClosesOnce(t *testing.T) {
	f := NewFeed[int](0)
	ch, cancel := f.Subscribe()
	f.Publish(1)
	f.Publish(2)
	f.Close()
	f.Close()
	cancel()
	f.Publish(3)
	if got, closed := drain(ch); !reflect.DeepEqual(got, []int{1, 2}) || !closed {
		t.Fatalf("subscription = %v (closed %v), want [1 2] then closed", got, closed)
	}
	late, lateCancel := f.Subscribe()
	defer lateCancel()
	if got, closed := drain(late); !reflect.DeepEqual(got, []int{1, 2}) || !closed {
		t.Fatalf("late subscription = %v (closed %v), want [1 2] then closed", got, closed)
	}
}

// TestFeedPublishNeverBlocks: a subscriber that never receives loses
// the events past its buffer instead of stalling the publisher, and
// the unbounded history keeps every event.
func TestFeedPublishNeverBlocks(t *testing.T) {
	f := NewFeed[int](0)
	ch, cancel := f.Subscribe()
	defer cancel()
	const n = 10 * feedBuffer
	for i := 0; i < n; i++ {
		f.Publish(i)
	}
	if got, _ := drain(ch); len(got) != feedBuffer || got[0] != 0 {
		t.Fatalf("stalled subscriber holds %d events, want the first %d", len(got), feedBuffer)
	}
	if got := len(f.History()); got != n {
		t.Fatalf("history holds %d events, want %d", got, n)
	}
}

// TestStateNeverAheadOfStatus: while jobs move through their
// lifecycle, State never lists a lifecycle event of a status the job
// has not reached — in particular no terminal event while Status is
// still queued or running. Pollers spin on State across every job's
// running and terminal transitions.
func TestStateNeverAheadOfStatus(t *testing.T) {
	const jobs = 8
	svc, started, release, _ := blockingService(t, jobs, jobs)
	rank := map[string]int{string(StatusQueued): 0, string(StatusRunning): 1,
		string(StatusDone): 2, string(StatusFailed): 2, string(StatusCancelled): 2}

	log := testLog(t, 1)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		j, err := svc.Submit(context.Background(), log)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				st := j.State()
				for _, ev := range st.Events {
					if ev.Stage == "" && rank[ev.Phase] > rank[string(st.Status)] {
						t.Errorf("%s: State lists a %s event while its status is %s", j.ID(), ev.Phase, st.Status)
						return
					}
				}
				if st.Status.Terminal() {
					return
				}
				runtime.Gosched()
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		<-started
	}
	close(release)
	wg.Wait()
}
