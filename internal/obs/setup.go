package obs

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"strings"
	"time"

	"github.com/mistralcloud/mistral/internal/obs/tsdb"
)

// CLI carries the observability flags shared by the cmd/ binaries.
type CLI struct {
	// TracePath receives the span trace; a ".json" suffix selects Chrome
	// trace_event format (open in Perfetto), anything else JSONL.
	TracePath string
	// MetricsPath receives the end-of-run metrics registry dump as
	// indented JSON ("-" for stderr).
	MetricsPath string
	// LogLevel enables structured logging to stderr at debug, info,
	// warn, or error.
	LogLevel string
	// PprofAddr serves net/http/pprof, expvar (/debug/vars), the live
	// Prometheus exposition (/metrics), and the ops-plane snapshot
	// (/ops) on this address, e.g. "localhost:6060". Use ":0" forms to
	// bind an ephemeral port; the bound address lands in
	// Observer.HTTPAddr.
	PprofAddr string
	// Handlers mounts extra endpoints on the same listener as /metrics
	// and /ops (mistral-serve rides its control API here). Patterns use
	// net/http.ServeMux syntax; ignored unless PprofAddr is set.
	Handlers map[string]http.Handler
}

// RegisterFlags declares the four observability flags -trace, -metrics,
// -log-level and -pprof on fs.
func (c *CLI) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.TracePath, "trace", "", "write span trace to FILE (.json = Chrome trace_event for Perfetto, else JSONL)")
	fs.StringVar(&c.MetricsPath, "metrics", "", `write metrics registry dump to FILE at exit ("-" = stderr)`)
	fs.StringVar(&c.LogLevel, "log-level", "", "structured logging to stderr: debug, info, warn, error")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof and expvar (/debug/vars) on ADDR, e.g. localhost:6060")
}

// shutdownTimeout bounds how long the closer waits for in-flight HTTP
// requests before forcing the listener shut.
const shutdownTimeout = 2 * time.Second

// Build assembles an Observer from the CLI knobs plus a close function
// that flushes the trace, shuts the HTTP server down gracefully, and
// writes the metrics dump. When every knob is empty it returns
// (nil, no-op, nil): observability fully disabled.
//
// The HTTP listener is bound synchronously, so an unusable PprofAddr
// (port in use, bad host) surfaces as an error here instead of a
// stray goroutine log line after the run already started.
func (c CLI) Build() (*Observer, func() error, error) {
	nop := func() error { return nil }
	if c.TracePath == "" && c.MetricsPath == "" && c.LogLevel == "" && c.PprofAddr == "" {
		return nil, nop, nil
	}
	o := &Observer{Metrics: NewRegistry()}
	o.Metrics.Publish("mistral")

	var traceFile *os.File
	if c.TracePath != "" {
		f, err := os.Create(c.TracePath)
		if err != nil {
			return nil, nop, fmt.Errorf("obs: %w", err)
		}
		traceFile = f
		format := FormatJSONL
		if strings.HasSuffix(c.TracePath, ".json") {
			format = FormatChrome
		}
		o.Trace = NewTracer(f, format)
	}
	if c.LogLevel != "" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(c.LogLevel)); err != nil {
			if traceFile != nil {
				traceFile.Close()
			}
			return nil, nop, fmt.Errorf("obs: bad log level %q: %w", c.LogLevel, err)
		}
		o.Log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	}
	var srv *http.Server
	var serveErr chan error
	if c.PprofAddr != "" {
		o.Ops = NewOpsState()
		o.History = tsdb.New(tsdb.Options{})
		// pprof and expvar register on the default mux; wrap it so the
		// Prometheus, ops, and trend-query endpoints ride the same
		// listener.
		mux := http.NewServeMux()
		mux.Handle("/metrics", o.Metrics.MetricsHandler())
		mux.Handle("/ops", o.Ops.Handler())
		mux.Handle("/v1/query", o.History.Handler())
		for pattern, h := range c.Handlers {
			mux.Handle(pattern, h)
		}
		mux.Handle("/", http.DefaultServeMux)
		ln, err := net.Listen("tcp", c.PprofAddr)
		if err != nil {
			if traceFile != nil {
				traceFile.Close()
			}
			return nil, nop, fmt.Errorf("obs: http listen %s: %w", c.PprofAddr, err)
		}
		o.HTTPAddr = ln.Addr().String()
		// The listener fronts a long-lived daemon, so a stalled or
		// malicious client must not pin a connection forever. Write stays
		// generous: /debug/pprof/profile?seconds=30 legitimately streams
		// for half a minute.
		srv = &http.Server{
			Handler:           mux,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       time.Minute,
			WriteTimeout:      5 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		serveErr = make(chan error, 1)
		go func() { serveErr <- srv.Serve(ln) }()
	}

	closer := func() error {
		var first error
		if srv != nil {
			ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
			err := srv.Shutdown(ctx)
			cancel()
			if err != nil {
				err = srv.Close()
			}
			if err != nil && first == nil {
				first = err
			}
			if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) && first == nil {
				first = err
			}
		}
		if o.Trace != nil {
			if err := o.Trace.Close(); err != nil && first == nil {
				first = err
			}
			if err := traceFile.Close(); err != nil && first == nil {
				first = err
			}
		}
		if c.MetricsPath != "" {
			w := io.Writer(os.Stderr)
			if c.MetricsPath != "-" {
				f, err := os.Create(c.MetricsPath)
				if err != nil {
					if first == nil {
						first = err
					}
					return first
				}
				defer f.Close()
				w = f
			}
			if err := o.Metrics.WriteJSON(w); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	return o, closer, nil
}
