package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"memcontention/internal/checkpoint"
	"memcontention/internal/obs"
)

// TestMemserveSmoke boots the real server through run() — warm-up,
// listener, live plane and all — then walks the serving surface end to
// end: probes, a prediction, and a live /metrics scrape that must parse
// as Prometheus exposition text and carry the request counter. This is
// the `make serve-smoke` gate.
func TestMemserveSmoke(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	dir := t.TempDir()
	o := options{
		addr:        "127.0.0.1:0",
		platforms:   "henri",
		seed:        1,
		maxInFlight: 32,
		window:      5 * time.Second,
		drain:       2 * time.Second,
		logLevel:    "info",
	}
	cli := &obs.CLI{ManifestPath: filepath.Join(dir, "manifest.json")}

	ready := make(chan string, 1)
	done := make(chan error, 1)
	var stdout, logbuf syncBuffer
	go func() {
		done <- run(ctx, &stdout, &logbuf, o, cli, func(addr string) { ready <- addr })
	}()

	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("memserve exited before becoming ready: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("memserve never became ready")
	}
	base := "http://" + addr

	if got := strings.TrimSpace(get(t, base+"/healthz")); got != "ok" {
		t.Errorf("/healthz = %q, want ok", got)
	}
	if got := strings.TrimSpace(get(t, base+"/readyz")); got != "ready" {
		t.Errorf("/readyz = %q, want ready", got)
	}

	var resp struct {
		CompGBps float64 `json:"comp_gbps"`
		CommGBps float64 `json:"comm_gbps"`
		Model    string  `json:"model_fingerprint"`
	}
	body := get(t, base+"/predict?platform=henri&n=8&mcomp=0&mcomm=1")
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("prediction response is not JSON: %v\n%s", err, body)
	}
	if resp.CompGBps <= 0 || resp.CommGBps <= 0 || resp.Model == "" {
		t.Errorf("implausible prediction: %+v", resp)
	}

	metrics := get(t, base+"/metrics")
	stats, err := obs.ParseExposition(metrics)
	if err != nil {
		t.Fatalf("/metrics is not valid Prometheus exposition text: %v", err)
	}
	if n := stats.SumFamily("memcontention_serve_requests_total"); n < 1 {
		t.Errorf("request counter not visible in live scrape: sum=%v", n)
	}
	if v, ok := stats.Value(`memcontention_serve_requests_total{code="200"}`); !ok || v < 1 {
		t.Errorf("requests_total{code=200} = %v (present=%v), want >= 1", v, ok)
	}

	cancel()
	select {
	case err := <-done:
		// run surfaces the cancellation so main can exit 130; anything
		// else is a real failure.
		if !checkpoint.IsCanceled(err) {
			t.Fatalf("graceful shutdown returned %v, want a canceled context", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("memserve did not drain after cancellation")
	}

	if !strings.Contains(stdout.String(), "memserve: serving on http://") {
		t.Errorf("startup banner missing from stdout: %q", stdout.String())
	}
	logs := logbuf.String()
	if !strings.Contains(logs, `"run_id"`) || !strings.Contains(logs, `"req_id"`) {
		t.Errorf("request log lines missing correlation ids:\n%s", logs)
	}
}

// TestMemserveRunRejectsUnknownPlatform keeps flag validation honest
// without binding a socket: an unknown platform, and a flag value the
// server would replace with its default, are refused before any work.
// The context is canceled, so a case run accepts ends at once instead of
// serving.
func TestMemserveRunRejectsUnknownPlatform(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		want string
		set  func(*options)
	}{
		{"cray-1", func(o *options) { o.platforms = "cray-1" }},
		{"-max-inflight 0:", func(o *options) { o.maxInFlight = 0 }},
		{"-window 0s:", func(o *options) { o.window = 0 }},
		{"-drain-timeout -1s:", func(o *options) { o.drain = -time.Second }},
		{"-log-level bogus:", func(o *options) { o.logLevel = "bogus" }},
	} {
		o := options{addr: "127.0.0.1:0", platforms: "henri", quiet: true,
			maxInFlight: 1, window: time.Second, drain: time.Second, logLevel: "info"}
		tc.set(&o)
		var out bytes.Buffer
		err := run(ctx, &out, io.Discard, o, &obs.CLI{}, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("want %q, got %v", tc.want, err)
		}
		if out.Len() != 0 {
			t.Errorf("%q: rejected run wrote %q", tc.want, out.String())
		}
	}
}

func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	return string(b)
}

// syncBuffer guards a bytes.Buffer: the server goroutine writes log
// lines while the test goroutine scrapes and finally reads them back.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
