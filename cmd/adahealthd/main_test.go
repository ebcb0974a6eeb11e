package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// bootLeader serves newLeader's handler tree on a loopback server and
// closes everything when the test ends.
func bootLeader(t *testing.T, o options) string {
	t.Helper()
	l, err := newLeader(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(l.handler)
	t.Cleanup(func() {
		if l.repl != nil {
			l.repl.Close()
		}
		ts.Close()
		if err := l.svc.Close(); err != nil {
			t.Error(err)
		}
		if err := l.svc.Engine().KDB().Close(); err != nil {
			t.Error(err)
		}
	})
	return ts.URL
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestDurableLeaderServesMetricsAndReplication: a freshly booted
// durable leader exposes one metric family from every instrumented
// layer before any traffic, and mounts the replication endpoints.
func TestDurableLeaderServesMetricsAndReplication(t *testing.T) {
	base := bootLeader(t, options{kdbDir: t.TempDir()})

	resp := get(t, base+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 4<<20)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			seen[strings.Fields(name)[0]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"service_queue_depth",
		"service_admissions_total",
		"service_jobs_total",
		"core_stage_seconds",
		"core_recall_total",
		"docstore_wal_commit_seconds",
		"kdb_breaker_mode",
		"repl_frames_behind",
		"stream_appends_total",
	} {
		if !seen[family] {
			t.Errorf("/metrics lacks %s", family)
		}
	}

	if resp := get(t, base+"/v1/replication/status"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /v1/replication/status: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestInMemoryLeaderHasNoReplication: without -kdb-dir there is no log
// to ship, so the replication routes are not mounted.
func TestInMemoryLeaderHasNoReplication(t *testing.T) {
	base := bootLeader(t, options{})
	if resp := get(t, base+"/v1/replication/status"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/replication/status: HTTP %d, want 404", resp.StatusCode)
	}
	if resp := get(t, base+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz: HTTP %d, want 200", resp.StatusCode)
	}
}
