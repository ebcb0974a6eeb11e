package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// request is one operation of a round: everything the clock would
// otherwise pay for (URL suffix, JSON body) is built before any phase
// starts.
type request struct {
	// index is the operation's position in its round; checks that
	// compare rounds key on it.
	index int
	// path is the request path on the leader (analyses: the submit
	// endpoint; streams: the dataset's register or visits endpoint).
	path string
	// register marks a dataset registration (PUT) among stream appends.
	register bool
	body     []byte
}

// env is what a workload's operations run against.
type env struct {
	d   *daemon
	tr  *tracer // non-nil in the traced phase only
	lay *layerSamples
	// smoke cuts every probe to one repeat.
	smoke bool
}

// shape is what the harness needs to know about a workload before it
// runs anything.
type shape struct {
	name string
	// clients is the closed loop's caller count.
	clients int
	// durable: the daemon runs over a K-DB directory built from a
	// template; replica: a standby follows it.
	durable, replica bool
}

// workload is one of the four fixed traffic shapes. The seed feeds
// generate only; R and the round contents are constants.
type workload interface {
	shape() shape
	// roundsFor sizes the measured phase: the constant number of rounds
	// that lasts about secs seconds on the machine README.md names.
	roundsFor(secs int) int
	// generate builds the inputs and pre-marshals rounds [0, rounds).
	generate(seed int64, rounds int) error
	// buildTemplate fills dir with the K-DB every boot starts from.
	buildTemplate(dir string) error
	// round returns the ordered operations of round r.
	round(r int) []request
	// do executes one operation and verifies its output. The latency
	// it returns ends where the service's work ends; the checks that
	// follow are the harness's own time.
	do(e *env, c *client, req *request) (time.Duration, error)
	// finish runs the checks that need the whole phase.
	finish(e *env) error
	// probe calls the layers under this workload directly.
	probe(e *env, out metricSet) error
}

// phase is the outcome of replaying rounds: every operation's latency,
// every round's wall time, and the failures.
type phase struct {
	lat        []time.Duration
	roundWalls []time.Duration
	refKernel  []time.Duration
	attempted  int
	failed     int
	firstErr   error
}

// context reports what surrounds the gated figures of a phase: its
// tail latencies, how even its rounds were, and the machine.
func (p *phase) context(set metricSet) {
	lat := millis(p.lat)
	set["client.op_p90_ms"] = percentile(lat, 0.9)
	set["client.op_max_ms"] = percentile(lat, 1)
	set["client.round_wall_cv"] = coefficientOfVariation(seconds(p.roundWalls))
	set["host.ref_kernel_ms"] = median(millis(p.refKernel))
}

// runRounds replays rounds [from, to) of w with the workload's client
// count. Clients take the round's operations in order from a shared
// cursor and wait for each reply before taking the next (closed loop).
// The reference kernel runs once before each round, outside both the
// operation and the round clock.
func runRounds(w workload, e *env, clients []*client, from, to int) *phase {
	p := &phase{}
	for r := from; r < to; r++ {
		p.refKernel = append(p.refKernel, refKernel())
		reqs := w.round(r)
		lat := make([]time.Duration, len(reqs))
		errs := make([]error, len(reqs))
		var cursor atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for _, c := range clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= len(reqs) {
						return
					}
					lat[i], errs[i] = w.do(e, c, &reqs[i])
				}
			}(c)
		}
		wg.Wait()
		p.roundWalls = append(p.roundWalls, time.Since(start))
		p.lat = append(p.lat, lat...)
		p.attempted += len(reqs)
		for i, err := range errs {
			if err == nil {
				continue
			}
			p.failed++
			if p.firstErr == nil {
				p.firstErr = fmt.Errorf("round %d op %d: %w", r, i, err)
			}
		}
	}
	return p
}

// refKernelSink keeps the compiler from discarding the kernel.
var refKernelSink float64

// refKernel is a fixed pure-Go computation of about 2 ms (README.md
// stores the value measured when the baseline was taken): a dependent
// floating-point chain over a 32 KiB table, so it depends on the core's
// clock and on who else is using it, and on nothing in this repository.
// A reader compares its median with the stored one to tell "the machine
// moved" from "the code moved".
func refKernel() time.Duration {
	var table [4096]float64
	for i := range table {
		table[i] = float64(i%97) * 1e-3
	}
	t0 := time.Now()
	x := 1.0
	for i := 0; i < 1<<20; i++ {
		x = x*0.999999 + table[i&4095]
	}
	d := time.Since(t0)
	refKernelSink = x
	return d
}
