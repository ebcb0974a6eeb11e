package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"adahealth/internal/httpapi"
	"adahealth/internal/kdb"
	"adahealth/internal/knowledge"
)

// TestDegradedReadRoutesToFallback: with a read fallback configured and
// the K-DB breaker degraded, the knowledge endpoints proxy to the
// standby and stamp the staleness header; a healthy breaker never
// touches the standby.
func TestDegradedReadRoutesToFallback(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	var hits atomic.Int64
	standby := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		httpapi.WriteJSON(w, http.StatusOK, knowledgeResponse{
			Dataset: r.URL.Query().Get("dataset"),
			Count:   1,
			Items:   []knowledge.Item{{ID: "standby-item", Dataset: "ward-a"}},
		})
	}))
	defer standby.Close()

	h, mux := newAPI(svc, HandlerOptions{ReadFallback: standby.URL})
	mode := kdb.ModeHealthy
	h.mode = func() kdb.Mode { return mode }
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// Healthy: served locally, standby untouched, no staleness header.
	resp, err := http.Get(srv.URL + "/v1/knowledge?dataset=ward-a")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hits.Load() != 0 {
		t.Fatalf("healthy read: status=%d standby hits=%d, want 200 and 0", resp.StatusCode, hits.Load())
	}
	if resp.Header.Get(StaleHeader) != "" {
		t.Errorf("healthy read carries %s=%q", StaleHeader, resp.Header.Get(StaleHeader))
	}

	// Degraded: proxied, stale header names the breaker mode.
	mode = kdb.ModeReadOnly
	resp, err = http.Get(srv.URL + "/v1/knowledge?dataset=ward-a")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hits.Load() != 1 {
		t.Fatalf("degraded read: status=%d standby hits=%d, want 200 and 1", resp.StatusCode, hits.Load())
	}
	if got := resp.Header.Get(StaleHeader); got != string(kdb.ModeReadOnly) {
		t.Errorf("%s = %q, want %q", StaleHeader, got, kdb.ModeReadOnly)
	}
	var kr knowledgeResponse
	if err := json.Unmarshal(body, &kr); err != nil {
		t.Fatal(err)
	}
	if kr.Count != 1 || len(kr.Items) != 1 || kr.Items[0].ID != "standby-item" {
		t.Errorf("degraded read body = %+v, want the standby's answer", kr)
	}

	// The similar endpoint proxies through the same gate.
	resp, err = http.Get(srv.URL + "/v1/datasets/ward-a/similar")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hits.Load() != 2 {
		t.Errorf("similar endpoint bypassed the fallback (hits=%d)", hits.Load())
	}
	if got := resp.Header.Get(StaleHeader); got != string(kdb.ModeReadOnly) {
		t.Errorf("similar: %s = %q, want %q", StaleHeader, got, kdb.ModeReadOnly)
	}
}

// TestDegradedReadFallsBackLocallyOnProxyError: an unreachable standby
// must not take the endpoint down — the local store still serves reads
// in read-only mode.
func TestDegradedReadFallsBackLocallyOnProxyError(t *testing.T) {
	svc, err := New(Config{Engine: fastConfig(1), Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Engine().KDB().StoreKnowledgeItems([]knowledge.Item{
		{ID: "local-item", Dataset: "ward-a", Kind: knowledge.KindCluster},
	}); err != nil {
		t.Fatal(err)
	}

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from now on

	h, mux := newAPI(svc, HandlerOptions{ReadFallback: dead.URL})
	h.mode = func() kdb.Mode { return kdb.ModeReadOnly }
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var kr knowledgeResponse
	if code := getJSON(t, srv, "/v1/knowledge?dataset=ward-a", &kr); code != http.StatusOK {
		t.Fatalf("local fallback read = %d, want 200", code)
	}
	if kr.Count != 1 || kr.Items[0].ID != "local-item" {
		t.Errorf("local fallback body = %+v, want the local item", kr)
	}
}

// TestSSEKeepalivePing: an idle SSE stream emits `: ping` comments so
// idle-timeout middleboxes keep the connection; events still flow
// afterwards and the stream still closes with the channel.
func TestSSEKeepalivePing(t *testing.T) {
	old := sseKeepalive
	sseKeepalive = 20 * time.Millisecond
	defer func() { sseKeepalive = old }()

	ch := make(chan string)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ServeSSE(w, r, ch)
	}))
	defer srv.Close()

	go func() {
		time.Sleep(150 * time.Millisecond) // several keepalive periods idle
		ch <- "after-idle"
		close(ch)
	}()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	pings, datas := 0, 0
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case strings.HasPrefix(line, ": ping"):
			pings++
		case strings.HasPrefix(line, "data: "):
			datas++
			if !strings.Contains(line, "after-idle") {
				t.Errorf("unexpected event %q", line)
			}
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if pings < 2 {
		t.Errorf("idle stream sent %d keepalive pings, want >= 2", pings)
	}
	if datas != 1 {
		t.Errorf("stream delivered %d events, want 1", datas)
	}
}
