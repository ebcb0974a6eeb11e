package stream

import (
	"fmt"
	"testing"
	"time"
)

// TestSubscribeReplaysNewest256 pins the live stream's replay bound:
// once a dataset has emitted more than 256 events, a new subscriber
// receives exactly the newest 256, oldest first, and the stream stays
// open for live events.
func TestSubscribeReplaysNewest256(t *testing.T) {
	svc := testService(t, fastConfig(2, ""))
	// Effectively-unreachable threshold: no resweep events interleave.
	mgr, err := NewManager(Config{Service: svc, DriftThreshold: 10})
	if err != nil {
		t.Fatal(err)
	}
	log := genLog(t, 2, 20, 200)
	if _, err := mgr.Register("live-replay", log.Exams, log.Patients, log.Records); err != nil {
		t.Fatal(err)
	}
	d, _ := mgr.Get("live-replay")
	// Every accepted batch emits two events (registered or appended,
	// then model-updated): 1 + 139 batches emit 280.
	const batches = 140
	for i := 2; i <= batches; i++ {
		id := fmt.Sprintf("PR-%d", i)
		if _, err := d.Append(nil, []Patient{{ID: id, Age: 40}},
			[]Record{{PatientID: id, ExamCode: log.Exams[0].Code, Date: time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)}}); err != nil {
			t.Fatal(err)
		}
	}
	const total, replay = 2 * batches, 256

	ch, cancel := d.Subscribe()
	defer cancel()
	for k := total - replay; k < total; k++ {
		var ev Event
		select {
		case ev = <-ch:
		default:
			t.Fatalf("replay ended before event %d of %d", k, total)
		}
		wantRev, wantType := k/2+1, EventModelUpdated
		if k%2 == 0 {
			wantType = EventAppended
			if wantRev == 1 {
				wantType = EventRegistered
			}
		}
		if ev.Revision != wantRev || ev.Type != wantType || ev.Dataset != "live-replay" {
			t.Fatalf("replayed event %d = %s@%d (%q), want %s@%d", k, ev.Type, ev.Revision, ev.Dataset, wantType, wantRev)
		}
	}
	select {
	case ev, open := <-ch:
		if !open {
			t.Fatal("a live dataset's stream closed on its own")
		}
		t.Fatalf("replay delivered more than %d events: extra %+v", replay, ev)
	default:
	}

	// Live events follow the replay.
	if _, err := d.Append(nil, []Patient{{ID: "PR-live", Age: 40}},
		[]Record{{PatientID: "PR-live", ExamCode: log.Exams[0].Code, Date: time.Date(2016, 1, 2, 0, 0, 0, 0, time.UTC)}}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{EventAppended, EventModelUpdated} {
		select {
		case ev := <-ch:
			if ev.Type != want || ev.Revision != batches+1 {
				t.Fatalf("live event = %s@%d, want %s@%d", ev.Type, ev.Revision, want, batches+1)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("live %s event not delivered", want)
		}
	}
}
