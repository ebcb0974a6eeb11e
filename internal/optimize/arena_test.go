package optimize

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"adahealth/internal/classify"
	"adahealth/internal/vec"
)

// sweepFingerprint reduces a sweep to everything observable: the full
// metric table plus the selected clustering's labels and centroids.
type sweepFingerprint struct {
	Rows      []KResult
	BestK     int
	ElbowK    int
	Labels    []int
	Centroids [][]float64
}

func fingerprint(res *SweepResult) sweepFingerprint {
	fp := sweepFingerprint{Rows: res.Rows, BestK: res.BestK, ElbowK: res.ElbowK}
	if res.BestClustering != nil {
		fp.Labels = res.BestClustering.Labels
		fp.Centroids = res.BestClustering.Centroids
	}
	return fp
}

// TestArenaSweepBitForBit drives a heterogeneous job sequence — mixed
// dimensionality, K grids, parallelism and tree options, the shape mix
// a service's arena sees across tenants — twice: once with every sweep
// on fresh worker state, once with every sweep drawing slabs from one
// shared Arena. Every result must be bit-for-bit identical.
func TestArenaSweepBitForBit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	jobs := []struct {
		name string
		data [][]float64
		cfg  SweepConfig
	}{
		{"warm-d6", structured(rng, 4, 40, 6), SweepConfig{
			Ks: []int{2, 3, 4, 6}, CVFolds: 4, Seed: 1, Parallelism: 3}},
		{"warm-d3", structured(rng, 3, 30, 3), SweepConfig{
			Ks: []int{2, 4, 5}, CVFolds: 3, Seed: 9, Parallelism: 2}},
		// Wider rows after narrower ones, then narrower again: slab
		// buffers must regrow and re-zero across shape changes.
		{"warm-d10", structured(rng, 5, 25, 10), SweepConfig{
			Ks: []int{3, 5, 7}, CVFolds: 3, Seed: 4, Parallelism: 4,
			Tree: classify.TreeOptions{MaxDepth: 4}}},
		{"warm-d2", structured(rng, 2, 50, 2), SweepConfig{
			Ks: []int{2, 3}, CVFolds: 5, Seed: 7, Parallelism: 1}},
	}

	fresh := make([]sweepFingerprint, len(jobs))
	for i, j := range jobs {
		res, err := Sweep(context.Background(), vec.NewCSRFromDense(j.data), j.cfg)
		if err != nil {
			t.Fatalf("%s (fresh): %v", j.name, err)
		}
		fresh[i] = fingerprint(res)
	}

	arena := NewArena()
	for round := 0; round < 2; round++ { // second round hits warm slabs
		for i, j := range jobs {
			cfg := j.cfg
			cfg.Arena = arena
			res, err := Sweep(context.Background(), vec.NewCSRFromDense(j.data), cfg)
			if err != nil {
				t.Fatalf("%s (arena, round %d): %v", j.name, round, err)
			}
			if got := fingerprint(res); !reflect.DeepEqual(got, fresh[i]) {
				t.Errorf("%s (round %d): arena-backed sweep diverged from fresh run", j.name, round)
			}
		}
	}
}

// TestArenaConcurrentSweeps shares one arena across concurrent sweeps
// (the service's worker slots) and checks each against its fresh
// baseline — slab checkout must isolate workers under the race
// detector.
func TestArenaConcurrentSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	datasets := [][][]float64{
		structured(rng, 3, 30, 4),
		structured(rng, 4, 25, 7),
		structured(rng, 2, 40, 3),
	}
	cfg := SweepConfig{Ks: []int{2, 3, 4}, CVFolds: 3, Seed: 5, Parallelism: 2}

	baselines := make([]sweepFingerprint, len(datasets))
	for i, data := range datasets {
		res, err := Sweep(context.Background(), vec.NewCSRFromDense(data), cfg)
		if err != nil {
			t.Fatal(err)
		}
		baselines[i] = fingerprint(res)
	}

	arena := NewArena()
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan string, len(datasets)*rounds)
	for r := 0; r < rounds; r++ {
		for i, data := range datasets {
			wg.Add(1)
			go func(i int, data [][]float64) {
				defer wg.Done()
				c := cfg
				c.Arena = arena
				res, err := Sweep(context.Background(), vec.NewCSRFromDense(data), c)
				if err != nil {
					errs <- err.Error()
					return
				}
				if !reflect.DeepEqual(fingerprint(res), baselines[i]) {
					errs <- "concurrent arena sweep diverged from baseline"
				}
			}(i, data)
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// TestArenaPoolBounded checks the free list settles at the peak
// concurrent worker population instead of growing per job.
func TestArenaPoolBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := structured(rng, 3, 30, 4)
	arena := NewArena()
	cfg := SweepConfig{Ks: []int{2, 3}, CVFolds: 3, Seed: 2, Parallelism: 2, Arena: arena}
	for i := 0; i < 5; i++ {
		if _, err := Sweep(context.Background(), vec.NewCSRFromDense(data), cfg); err != nil {
			t.Fatal(err)
		}
	}
	// ≤ Parallelism CV workers' trees + 1 chain.
	trees, chains := len(arena.trees.free), len(arena.chains.free)
	if trees > cfg.Parallelism || chains > 1 {
		t.Errorf("arena holds %d trees and %d chains after serial sweeps; want <= %d and <= 1",
			trees, chains, cfg.Parallelism)
	}
	if trees == 0 || chains == 0 {
		t.Errorf("arena never retained a slab (%d trees, %d chains)", trees, chains)
	}
}

// TestArenaTreeOptionsRebuild alternates tree configurations through
// one arena: a slab fitted under one option set must not leak its tree
// into a sweep configured differently.
func TestArenaTreeOptionsRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	data := structured(rng, 3, 40, 5)
	opts := []classify.TreeOptions{{}, {MaxDepth: 3}, {MinSamplesLeaf: 4}}

	arena := NewArena()
	for round := 0; round < 2; round++ {
		for _, to := range opts {
			cfg := SweepConfig{Ks: []int{2, 3, 4}, CVFolds: 3, Seed: 6, Parallelism: 1, Tree: to}
			res, err := Sweep(context.Background(), vec.NewCSRFromDense(data), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Arena = arena
			ares, err := Sweep(context.Background(), vec.NewCSRFromDense(data), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fingerprint(ares), fingerprint(res)) {
				t.Errorf("round %d, tree %+v: arena sweep diverged", round, to)
			}
		}
	}
}
