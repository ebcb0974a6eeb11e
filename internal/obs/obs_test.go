package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden locks the exposition format byte-for-byte: a
// scraper that parses 0.0.4 text must keep parsing us.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()

	r.Counter("zoo_total", "plain counter").Add(3)
	adm := r.CounterVec("adm_total", "by outcome", "outcome")
	adm.With("accepted").Add(5)
	adm.With("queue_full").Inc()

	r.Gauge("depth", "queue depth").Set(7)
	r.GaugeFunc("pull", "pull gauge", func() float64 { return 2.5 })
	modes := r.GaugeVec("mode", "enum gauge", "mode")
	modes.With("healthy").Set(1)
	modes.With("offline").Set(0)

	h := r.Histogram("lat_seconds", `latency with "quotes" and \slash`, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP adm_total by outcome
# TYPE adm_total counter
adm_total{outcome="accepted"} 5
adm_total{outcome="queue_full"} 1
# HELP depth queue depth
# TYPE depth gauge
depth 7
# HELP lat_seconds latency with "quotes" and \\slash
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.1"} 1
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 6.05
lat_seconds_count 4
# HELP mode enum gauge
# TYPE mode gauge
mode{mode="healthy"} 1
mode{mode="offline"} 0
# HELP pull pull gauge
# TYPE pull gauge
pull 2.5
# HELP zoo_total plain counter
# TYPE zoo_total counter
zoo_total 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Error("re-registering a counter must return the same child")
	}
	a.Inc()
	if got := r.Value("x_total"); got != 1 {
		t.Errorf("Value = %v, want 1", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("conflicting re-registration should panic")
		}
	}()
	r.Gauge("x_total", "now a gauge")
}

func TestGaugeFuncRebind(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", "g", func() float64 { return 1 })
	r.GaugeFunc("g", "g", func() float64 { return 2 })
	if got := r.Value("g"); got != 2 {
		t.Errorf("latest closure should win, got %v", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q_seconds", "q", []float64{0.01, 0.1, 1})
	if got := h.Quantile(0.99); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	for i := 0; i < 99; i++ {
		h.Observe(0.005)
	}
	h.Observe(0.5)
	if got := h.Quantile(0.5); got != 0.01 {
		t.Errorf("p50 = %v, want 0.01", got)
	}
	if got := h.Quantile(1); got != 1.0 {
		t.Errorf("p100 = %v, want 1", got)
	}
	h.Observe(50)
	if got := h.Quantile(1); !math.IsInf(got, 1) {
		t.Errorf("p100 with overflow obs = %v, want +Inf", got)
	}
}

// TestConcurrentScrape hammers every instrument kind from many
// goroutines while scraping; run under -race this is the data-race
// gate for the whole package.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c_total", "c", "k")
	gv := r.GaugeVec("g", "g", "k")
	hv := r.HistogramVec("h_seconds", "h", []float64{0.001, 0.01, 0.1}, "k")
	r.GaugeFunc("pull", "p", func() float64 { return 1 })

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := string(rune('a' + w%4))
			c, g, h := cv.With(key), gv.With(key), hv.With(key)
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i%100) / 1000)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			srv := httptest.NewRecorder()
			r.Handler().ServeHTTP(srv, httptest.NewRequest("GET", "/metrics", nil))
			if ct := srv.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
				t.Errorf("content type %q", ct)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	var total int64
	for _, k := range []string{"a", "b", "c", "d"} {
		total += int64(r.Value("c_total", k))
	}
	if total != workers*iters {
		t.Errorf("counter total = %d, want %d", total, workers*iters)
	}
	var hcount float64
	for _, k := range []string{"a", "b", "c", "d"} {
		hcount += r.Value("h_seconds", k)
	}
	if hcount != workers*iters {
		t.Errorf("histogram count = %v, want %d", hcount, workers*iters)
	}
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the cumulative
// buckets: the upper bound of the first bucket covering q of the
// observations. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	need := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i := range h.upper {
		cum += h.counts[i].Load()
		if cum >= need {
			return h.upper[i]
		}
	}
	return math.Inf(1)
}
