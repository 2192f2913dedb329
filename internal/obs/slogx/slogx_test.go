package slogx

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

// newTestLogger builds a JSON logger without timestamps so assertions are
// deterministic.
func newTestLogger(buf *bytes.Buffer, level slog.Level) *Logger {
	h := slog.NewJSONHandler(buf, &slog.HandlerOptions{
		Level: level,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if a.Key == slog.TimeKey && len(groups) == 0 {
				return slog.Attr{}
			}
			return a
		},
	})
	return NewHandler(h)
}

func decodeLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

func TestLoggerStampsRunID(t *testing.T) {
	var buf bytes.Buffer
	l := newTestLogger(&buf, slog.LevelInfo)
	if l.RunID() == "" {
		t.Fatal("empty run id")
	}
	l.Info("serving", "addr", "localhost:0")
	l.Debug("dropped: below level")
	lines := decodeLines(t, &buf)
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1 (debug filtered)", len(lines))
	}
	if lines[0]["run_id"] != l.RunID() {
		t.Errorf("run_id = %v, want %s", lines[0]["run_id"], l.RunID())
	}
	if lines[0]["msg"] != "serving" || lines[0]["addr"] != "localhost:0" {
		t.Errorf("unexpected line: %v", lines[0])
	}
}

func TestNilLoggerIsInert(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x")
	l.Warn("x")
	l.Error("x")
	if l.With("k", "v") != nil {
		t.Error("nil.With must stay nil")
	}
	if l.RunID() != "" || l.Enabled(slog.LevelError) {
		t.Error("nil logger must report empty state")
	}
	if NewHandler(nil) != nil {
		t.Error("NewHandler(nil) must be nil")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "WARN": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "bogus": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestEnabledGatesLevels(t *testing.T) {
	var buf bytes.Buffer
	l := newTestLogger(&buf, slog.LevelWarn)
	if l.Enabled(slog.LevelInfo) {
		t.Error("info enabled at warn level")
	}
	if !l.Enabled(slog.LevelError) {
		t.Error("error disabled at warn level")
	}
}
