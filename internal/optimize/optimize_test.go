package optimize

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"adahealth/internal/cluster"
	"adahealth/internal/slots"
)

// structured builds data with `k` well-separated groups so that the
// "true" K is recoverable.
func structured(rng *rand.Rand, k, perCluster, d int) [][]float64 {
	var data [][]float64
	for c := 0; c < k; c++ {
		center := make([]float64, d)
		for j := range center {
			center[j] = float64((c*7+j*3)%11) * 4
		}
		for p := 0; p < perCluster; p++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = center[j] + rng.NormFloat64()*0.4
			}
			data = append(data, row)
		}
	}
	return data
}

func TestSweepErrors(t *testing.T) {
	if _, err := Sweep(context.Background(), nil, SweepConfig{}); err == nil {
		t.Error("accepted empty data")
	}
	data := structured(rand.New(rand.NewSource(1)), 2, 10, 3)
	if _, err := Sweep(context.Background(), data, SweepConfig{Ks: []int{1}}); err == nil {
		t.Error("accepted K=1")
	}
	if _, err := Sweep(context.Background(), data, SweepConfig{Ks: []int{1000}}); err == nil {
		t.Error("accepted K > n")
	}
}

func TestSweepTableShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := structured(rng, 4, 50, 6)
	res, err := Sweep(context.Background(), data, SweepConfig{
		Ks:      []int{2, 3, 4, 5, 6, 8},
		CVFolds: 5,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// SSE is non-increasing in K (allowing small local-minimum noise).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].SSE > res.Rows[i-1].SSE*1.10 {
			t.Errorf("SSE rose sharply from K=%d (%.2f) to K=%d (%.2f)",
				res.Rows[i-1].K, res.Rows[i-1].SSE, res.Rows[i].K, res.Rows[i].SSE)
		}
	}
	// Every row carries metrics in [0,1].
	for _, r := range res.Rows {
		for name, v := range map[string]float64{
			"accuracy": r.Accuracy, "precision": r.Precision,
			"recall": r.Recall, "similarity": r.Similarity,
		} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Errorf("K=%d %s = %v outside [0,1]", r.K, name, v)
			}
		}
	}
}

func TestSweepMetricsCollapseBeyondTrueK(t *testing.T) {
	// Table I's shape: classification metrics degrade sharply once K
	// exceeds the natural group count, because K-means manufactures
	// small arbitrary clusters the classifier cannot re-predict.
	rng := rand.New(rand.NewSource(3))
	trueK := 4
	data := structured(rng, trueK, 50, 5)
	res, err := Sweep(context.Background(), data, SweepConfig{
		Ks:      []int{4, 12, 20},
		CVFolds: 5,
		Seed:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	byK := map[int]KResult{}
	for _, r := range res.Rows {
		byK[r.K] = r
	}
	if byK[4].Combined <= byK[20].Combined {
		t.Errorf("combined score did not collapse: K=4 %.3f vs K=20 %.3f",
			byK[4].Combined, byK[20].Combined)
	}
	if byK[4].Recall <= byK[20].Recall {
		t.Errorf("recall did not collapse: K=4 %.3f vs K=20 %.3f",
			byK[4].Recall, byK[20].Recall)
	}
	// Selection never picks the collapsed configuration.
	if res.BestK == 20 {
		t.Errorf("BestK = 20, the collapsed configuration")
	}
}

func TestSelectBestK(t *testing.T) {
	rows := []KResult{
		{K: 6, Combined: 0.85},
		{K: 7, Combined: 0.84},
		{K: 8, Combined: 0.87},
		{K: 9, Combined: 0.72},
	}
	if got := selectBestK(rows); got != 8 {
		t.Errorf("selectBestK = %d, want 8", got)
	}
	// Ties break toward smaller K (few significant clusters, §IV-A).
	rows = []KResult{
		{K: 10, Combined: 0.9},
		{K: 6, Combined: 0.9},
		{K: 8, Combined: 0.9},
	}
	if got := selectBestK(rows); got != 6 {
		t.Errorf("tie-break selectBestK = %d, want 6", got)
	}
}

func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	data := structured(rng, 3, 40, 4)
	a, err := Sweep(context.Background(), data, SweepConfig{Ks: []int{2, 3, 4}, CVFolds: 4, Seed: 9, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Sweep(context.Background(), data, SweepConfig{Ks: []int{2, 3, 4}, CVFolds: 4, Seed: 9, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs across parallelism: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
	if a.BestK != b.BestK {
		t.Errorf("BestK differs: %d vs %d", a.BestK, b.BestK)
	}
}

// TestSweepEqualAcrossBudgets: the CV units spread over whatever budget
// the caller lends — none idle (every unit on the sweep's goroutine),
// one idle slot beside the sweep's own, eight — and the rows are the
// same as the private pool's.
func TestSweepEqualAcrossBudgets(t *testing.T) {
	data := structured(rand.New(rand.NewSource(11)), 3, 40, 4)
	cfg := SweepConfig{Ks: []int{2, 3, 4, 6}, CVFolds: 4, Seed: 9, Parallelism: 1}
	want, err := Sweep(context.Background(), data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := slots.New(1)
	full.TryAcquire()
	lone := slots.New(2)
	lone.TryAcquire()
	for name, budget := range map[string]slots.Pool{"full": full, "lone": lone, "8": slots.New(8)} {
		cfg.Budget = budget
		got, err := Sweep(context.Background(), data, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || got.BestK != want.BestK {
			t.Errorf("budget %s: rows differ from the private pool's", name)
		}
	}
}

// TestSweepCancelledLeavesNoGoroutine: a sweep cancelled mid-chain
// returns the bare context error after every CV helper exited.
func TestSweepCancelledLeavesNoGoroutine(t *testing.T) {
	data := structured(rand.New(rand.NewSource(3)), 6, 1500, 16)
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	_, err := Sweep(ctx, data, SweepConfig{Ks: DefaultKs(), Seed: 2, Budget: slots.New(4)})
	if err != context.Canceled {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the sweep (baseline %d)", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSweepBestAccessor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data := structured(rng, 3, 30, 3)
	res, err := Sweep(context.Background(), data, SweepConfig{Ks: []int{2, 3}, CVFolds: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best.K != res.BestK {
		t.Errorf("Best().K = %d, want %d", best.K, res.BestK)
	}
}

func TestElbowK(t *testing.T) {
	rows := []KResult{
		{K: 2, SSE: 1000},
		{K: 4, SSE: 400},
		{K: 6, SSE: 350}, // knee at 4: slope flattens sharply after it
		{K: 8, SSE: 320},
	}
	if got := elbowK(rows); got != 4 {
		t.Errorf("elbowK = %d, want 4", got)
	}
}

func TestSweepWithDenseLloydAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := structured(rng, 3, 40, 4)
	res, err := Sweep(context.Background(), data, SweepConfig{
		Ks: []int{2, 3, 4}, CVFolds: 3, Seed: 5,
		Cluster: cluster.Options{Algorithm: cluster.DenseLloyd},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

// The warm-started sweep must evaluate every requested K
// (in the caller's row order), keep SSE non-increasing over ascending
// K (each K starts from the previous optimum plus a split, so its
// converged SSE cannot exceed it), and stay deterministic across
// Parallelism.
func TestSweepWarmStartProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	data := structured(rng, 4, 40, 5)
	cfg := SweepConfig{Ks: []int{8, 2, 4, 6}, CVFolds: 4, Seed: 3} // deliberately unsorted
	res, err := Sweep(context.Background(), data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range cfg.Ks {
		if res.Rows[i].K != k {
			t.Fatalf("row %d is K=%d, want caller order %d", i, res.Rows[i].K, k)
		}
	}
	byK := map[int]KResult{}
	for _, r := range res.Rows {
		byK[r.K] = r
	}
	for _, pair := range [][2]int{{2, 4}, {4, 6}, {6, 8}} {
		if byK[pair[1]].SSE > byK[pair[0]].SSE+1e-9 {
			t.Errorf("warm-started SSE rose from K=%d (%.4f) to K=%d (%.4f)",
				pair[0], byK[pair[0]].SSE, pair[1], byK[pair[1]].SSE)
		}
	}
	again, err := Sweep(context.Background(), data, SweepConfig{Ks: cfg.Ks, CVFolds: 4, Seed: 3, Parallelism: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Rows {
		if res.Rows[i] != again.Rows[i] {
			t.Fatalf("warm sweep row %d differs across parallelism: %+v vs %+v", i, res.Rows[i], again.Rows[i])
		}
	}
}

func TestWarmSeed(t *testing.T) {
	data := [][]float64{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	prev := [][]float64{{0.1, 0.1}, {9.9, 0.1}}
	got := warmSeed(prev, data, nil, 3)
	if len(got) != 3 {
		t.Fatalf("got %d centroids, want 3", len(got))
	}
	for i := range prev {
		for j := range prev[i] {
			if got[i][j] != prev[i][j] {
				t.Errorf("warm seed %d does not carry over prev centroid", i)
			}
		}
	}
	// The farthest point from {~(0,0), ~(10,0)} is (0,10) or (10,10);
	// (0,10) has squared distance ~98.01 + more... both ~ equal; the
	// first argmax wins: (0,10).
	if got[2][0] != 0 || got[2][1] != 10 {
		t.Errorf("split centroid = %v, want the farthest point (0,10)", got[2])
	}
	// Duplicate K: the previous centroids are reused verbatim.
	same := warmSeed(prev, data, nil, 2)
	if len(same) != 2 || &same[0][0] != &prev[0][0] {
		t.Errorf("warmSeed with k == len(prev) should hand back prev")
	}
}

func TestKSeedFormula(t *testing.T) {
	if KSeed(1, 6) != 1+6*7919 {
		t.Errorf("KSeed(1,6) = %d", KSeed(1, 6))
	}
}
