// Jobs: the analysis-as-a-service API. Instead of blocking on
// engine.Analyze, submit examination logs to a Service and get Job
// handles back: a ward's batch of logs queues under admission control,
// higher-priority logs jump the queue, progress streams live from the
// stage scheduler, and every report is identical to what the blocking
// call would have produced.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"adahealth"
)

func main() {
	ctx := context.Background()

	// One service = one shared engine: its CPU budget and K-DB. Two
	// worker slots: a third submission waits in the admission queue.
	svc, err := adahealth.NewService(adahealth.ServiceConfig{Workers: 2, QueueDepth: 16})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Shutdown(context.Background())

	// Three wards submit their logs; the stat ward outranks the rest.
	jobs := make([]*adahealth.Job, 0, 3)
	for i, submit := range []struct {
		ward     string
		priority int
	}{
		{"ward-a", 0},
		{"ward-b", 0},
		{"stat-ward", 5},
	} {
		cfg := adahealth.SmallDataConfig()
		cfg.Seed = int64(i + 1)
		data, err := adahealth.GenerateSyntheticLog(cfg)
		if err != nil {
			log.Fatal(err)
		}
		data.Name = submit.ward

		job, err := svc.Submit(ctx, data,
			adahealth.WithPriority(submit.priority),
			adahealth.WithLabels(map[string]string{"ward": submit.ward}),
			adahealth.WithDeadline(time.Now().Add(5*time.Minute)))
		if err != nil {
			// A full queue is backpressure, not failure: callers can
			// shed load here or retry later.
			log.Fatalf("submitting %s: %v", submit.ward, err)
		}
		fmt.Printf("submitted %s as %s (status %s)\n", submit.ward, job.ID(), job.Status())
		jobs = append(jobs, job)
	}

	// Stream one job's live progress: lifecycle transitions plus
	// per-stage start/finish straight from the DAG scheduler.
	go func() {
		for ev := range jobs[2].Events() {
			if ev.Stage != "" {
				fmt.Printf("  [%s] stage %-16s %s\n", ev.JobID, ev.Stage, ev.Phase)
			} else {
				fmt.Printf("  [%s] -> %s\n", ev.JobID, ev.Phase)
			}
		}
	}()

	// Wait for everything; reports are bit-for-bit what Analyze gives.
	for _, job := range jobs {
		report, err := job.Wait(ctx)
		if err != nil {
			log.Fatalf("%s: %v", job.ID(), err)
		}
		fmt.Printf("%s (%s): K=%d, %d knowledge items, %d stages traced\n",
			job.ID(), job.Labels()["ward"], report.Sweep.BestK,
			len(report.Ranked), len(report.Stages))
	}
}
