package obs

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Handler returns the registry's HTTP surface:
//
//	/metrics       Prometheus text exposition
//	/metrics.json  JSON snapshot
//	/trace         finished spans as a JSON array
//	/slo           per-tenant SLO burn-rate report (text)
//	/slo.json      the same, as JSON
//	/debug/pprof/  the standard Go profiler endpoints
//
// It is safe to call on a nil registry (every route serves empty data), so a
// server can be wired up before deciding whether observability is on.
// Callers can mount additional routes (e.g. an autoscaler state endpoint)
// by passing Routes.
func (r *Registry) Handler(extra ...Route) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		out, err := r.Tracer().ExportJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(out)
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if r == nil {
			_, _ = w.Write([]byte("no tenants with recorded traffic\n"))
			return
		}
		_ = r.SLO().WriteSLOText(w)
	})
	mux.HandleFunc("/slo.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var snaps []SLOSnapshot
		if r != nil {
			snaps = r.SLO().Snapshot()
		}
		if snaps == nil {
			snaps = []SLOSnapshot{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snaps)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, rt := range extra {
		mux.HandleFunc(rt.Pattern, rt.Handler)
	}
	return mux
}

// Route is an extra endpoint mounted next to the registry's built-in ones.
type Route struct {
	Pattern string
	Handler http.HandlerFunc
}

// Limits on the served socket, constants rather than knobs: a peer gets
// readHeaderTimeout to send a request's header and a kept-alive connection
// idleTimeout to send its next one, so a client that connects and goes quiet
// costs a file descriptor for seconds, not for the life of the process; and
// on a signal, requests in flight get drainTimeout to finish.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
	drainTimeout      = 10 * time.Second
)

// Serve blocks serving the registry's Handler on addr (e.g. ":9090") until
// SIGINT or SIGTERM, then stops accepting, lets requests in flight finish
// (for drainTimeout at most) and returns nil.
func (r *Registry) Serve(addr string, extra ...Route) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serveUntil(ctx, newServer(r.Handler(extra...)), ln, drainTimeout)
}

func newServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}
}

// serveUntil serves ln until ctx is done, then shuts srv down: no new
// connections, idle ones closed, busy ones given drain to finish and closed
// under their requests after that (the error says so).
func serveUntil(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration) error {
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err := srv.Shutdown(dctx)
	if err != nil {
		_ = srv.Close() // the drain ran out; Close cannot fail more usefully than err
	}
	<-served // http.ErrServerClosed: Shutdown was called
	return err
}
