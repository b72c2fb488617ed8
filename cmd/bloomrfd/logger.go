package main

// Serving-layer logging. Everything bloomrfd prints while serving flows
// through one leveled slog logger: operator lines from main, the server
// package's structured key=value lines (Config.Logf), snapshot-loop and
// follower diagnostics, and the slow-request JSON lines from the phase
// tracer. -log-format selects the rendering (human text, or one JSON
// object per line for log shippers); levels are sniffed from the
// key=value convention the server package already emits, so the server
// stays free of any logging dependency.

import (
	"fmt"
	"log/slog"
	"os"
	"strings"
)

// appLogger adapts the Printf-shaped logf hooks the server package
// exposes onto a leveled slog.Logger.
type appLogger struct {
	sl *slog.Logger
}

// newAppLogger builds the process logger for -log-format (text or json).
func newAppLogger(format string) (*appLogger, error) {
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	default:
		return nil, fmt.Errorf("-log-format %q must be \"text\" or \"json\"", format)
	}
	return &appLogger{sl: slog.New(h)}, nil
}

// logf renders one line at a level sniffed from the message: the server
// package marks its structured lines with warn=/err= keys, and failure
// text from the persistence and replication paths reads "... failed: <err>".
// Plain operational lines (including counters like "0 failed") land at
// info.
func (l *appLogger) logf(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	switch {
	case strings.Contains(msg, "err=") || strings.Contains(msg, "failed:") || strings.Contains(msg, "error"):
		l.sl.Error(msg)
	case strings.Contains(msg, "warn="):
		l.sl.Warn(msg)
	default:
		l.sl.Info(msg)
	}
}

// fatalf logs at error level and exits, replacing log.Fatalf so startup
// failures use the selected format too.
func (l *appLogger) fatalf(format string, args ...any) {
	l.sl.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
