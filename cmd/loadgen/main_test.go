package main

import (
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"adahealth/internal/obs"
	"adahealth/internal/service"
	"adahealth/internal/stream"
)

// admissions reads the daemon's own admission counters: accepted, and
// refused with a 429 or 503.
func admissions() (accepted, refused float64) {
	r := obs.Default()
	return r.Value("service_admissions_total", "accepted"),
		r.Value("service_admissions_total", "queue_full") +
			r.Value("service_admissions_total", "degraded") +
			r.Value("service_admissions_total", "closed")
}

// TestOverloadAccountsForEveryArrival offers a one-worker, two-slot
// daemon more jobs than it can run, beside one stream tenant. Every
// arrival must end admitted-and-measured or rejected, in agreement with
// the daemon's own counts, and the queue slope must not be fitted over
// the drain.
func TestOverloadAccountsForEveryArrival(t *testing.T) {
	svc, err := service.New(service.Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := stream.NewManager(stream.Config{Service: svc})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(stream.Handler(svc, mgr))
	t.Cleanup(func() {
		ts.Close()
		if err := svc.Close(); err != nil {
			t.Error(err)
		}
	})

	accepted0, refused0 := admissions()
	res, err := run(ts.URL, config{duration: 1500 * time.Millisecond, rate: 200, streams: 1, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	accepted1, refused1 := admissions()

	if res.Rejected == 0 {
		t.Errorf("no rejections at %.0f/s offered to one worker: %+v", res.OfferedPerSec, res)
	}
	if res.Offered != res.Submitted+res.Rejected {
		t.Errorf("offered %d != submitted %d + rejected %d", res.Offered, res.Submitted, res.Rejected)
	}
	if got := accepted1 - accepted0; float64(res.Submitted) != got {
		t.Errorf("submitted %d, daemon accepted %.0f", res.Submitted, got)
	}
	if got := refused1 - refused0; float64(res.Rejected) != got {
		t.Errorf("rejected %d, daemon refused %.0f", res.Rejected, got)
	}
	if res.Failed != 0 || res.Completed != res.Submitted {
		t.Errorf("%d failed, %d of %d submitted completed", res.Failed, res.Completed, res.Submitted)
	}
	if len(res.Streams) != 1 || res.Streams[0].Appends == 0 || res.Streams[0].Errors != 0 {
		t.Errorf("stream tenant: %+v", res.Streams)
	}
	if res.QueueGrowthPerSec < 0 {
		t.Errorf("queue growth %.3f/s < 0 with %d rejections", res.QueueGrowthPerSec, res.Rejected)
	}
	if g := gate(res, 1); len(g) != 0 {
		t.Errorf("gate failed a clean run: %v", g)
	}
}

// TestOfferKeepsAbsoluteSchedule stalls the first fire: the arrivals
// due during the stall fire as soon as it ends, the ones due after it
// fire on time, and none is lost.
func TestOfferKeepsAbsoluteSchedule(t *testing.T) {
	const rate = 100.0
	const stall = 400 * time.Millisecond
	start := time.Now()
	end := start.Add(800 * time.Millisecond)
	var dues, fired []time.Time
	offer(rand.New(rand.NewSource(3)), rate, start, end, func(i int, due time.Time) {
		dues = append(dues, due)
		fired = append(fired, time.Now())
		if i == 0 {
			time.Sleep(stall)
		}
	})

	// The schedule depends on the seed alone.
	rng := rand.New(rand.NewSource(3))
	var want []time.Time
	for due := start; ; {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if !due.Before(end) {
			break
		}
		want = append(want, due)
	}
	if len(dues) != len(want) {
		t.Fatalf("fired %d arrivals, %d were due in the window", len(dues), len(want))
	}
	stallEnd := fired[0].Add(stall)
	for i, due := range dues {
		if !due.Equal(want[i]) {
			t.Fatalf("arrival %d due at %v, want %v", i, due.Sub(start), want[i].Sub(start))
		}
		if late := fired[i].Sub(due); due.After(stallEnd) && late > stall/2 {
			t.Errorf("arrival %d due after the stall fired %v late", i, late)
		}
	}
}

func TestGrowthPerSec(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	cases := []struct {
		name    string
		samples []queueSample
		want    float64
	}{
		{"none", nil, 0},
		{"one", []queueSample{{ms(0), 3}}, 0},
		{"flat", []queueSample{{ms(0), 4}, {ms(100), 4}, {ms(300), 4}}, 0},
		{"uneven ramp", []queueSample{{ms(0), 0}, {ms(500), 1}, {ms(1500), 3}, {ms(2000), 4}}, 2},
		{"draining", []queueSample{{ms(0), 8}, {ms(1000), 6}, {ms(2000), 4}}, -2},
		{"filled to the cap", []queueSample{{ms(0), 0}, {ms(100), 2}, {ms(200), 1}, {ms(300), 2}}, 1 / 0.14},
	}
	for _, c := range cases {
		if got := growthPerSec(c.samples); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("%s: growth %v, want %v", c.name, got, c.want)
		}
	}
}
