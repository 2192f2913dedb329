// Package slogx is the serving path's structured, leveled request
// logging, built on log/slog. It exists for the same reason internal/obs
// wraps its instruments: the repo's hook contract says "nil means off,
// at zero cost", and *slog.Logger panics on nil, so the serving code
// threads a *slogx.Logger whose every method is inert on a nil receiver.
//
// Correlation follows the run-manifest model: a process mints one RunID
// at startup (random, since a serving process is not a reproducible
// artifact) and stamps it on every line; the server derives per-request
// ids from it, so one request's lines — and the run manifest written at
// exit carrying the same id — join up across the fleet's log
// aggregation.
package slogx

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"io"
	"log/slog"
	"strings"
)

// Logger is a nil-safe wrapper around *slog.Logger. The zero of
// *Logger (nil) drops everything without allocating.
type Logger struct {
	s   *slog.Logger
	run string
}

// New builds a JSON logger writing to w at the given level, stamped with
// a fresh RunID. Pass the result's RunID to the run manifest (Notes) so
// logs and manifest correlate.
func New(w io.Writer, level slog.Level) *Logger {
	return NewHandler(slog.NewJSONHandler(w, &slog.HandlerOptions{Level: level}))
}

// NewHandler wraps an arbitrary slog.Handler (tests inject handlers that
// strip timestamps for deterministic output). A nil handler yields a nil
// — inert — logger.
func NewHandler(h slog.Handler) *Logger {
	if h == nil {
		return nil
	}
	run := NewRunID()
	return &Logger{
		s:   slog.New(h).With(slog.String("run_id", run)),
		run: run,
	}
}

// NewRunID mints a 64-bit random hex id. crypto/rand is deliberate: run
// ids must differ across concurrently started processes, and the
// determinism invariant only governs simulation artifacts, not identity
// minting.
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "run-unseeded" // entropy exhaustion: still log, just without uniqueness
	}
	return hex.EncodeToString(b[:])
}

// RunID reports the logger's run correlation id ("" on nil).
func (l *Logger) RunID() string {
	if l == nil {
		return ""
	}
	return l.run
}

// ParseLevel maps the conventional level names onto slog levels,
// defaulting to info for unknown input.
func ParseLevel(s string) slog.Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug
	case "warn", "warning":
		return slog.LevelWarn
	case "error":
		return slog.LevelError
	default:
		return slog.LevelInfo
	}
}

// With returns a logger carrying extra attributes (nil stays nil).
func (l *Logger) With(args ...any) *Logger {
	if l == nil {
		return nil
	}
	return &Logger{s: l.s.With(args...), run: l.run}
}

// Debug logs at debug level; a nil logger drops the line.
func (l *Logger) Debug(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Debug(msg, args...)
}

// Info logs at info level; a nil logger drops the line.
func (l *Logger) Info(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Info(msg, args...)
}

// Warn logs at warn level; a nil logger drops the line.
func (l *Logger) Warn(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Warn(msg, args...)
}

// Error logs at error level; a nil logger drops the line.
func (l *Logger) Error(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Error(msg, args...)
}

// Enabled reports whether the level would be emitted (false on nil), so
// hot paths can skip building expensive attribute sets.
func (l *Logger) Enabled(level slog.Level) bool {
	if l == nil {
		return false
	}
	return l.s.Enabled(context.Background(), level)
}
