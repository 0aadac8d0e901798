package metrics

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Handler serves the registry in Prometheus text format on every GET.
// Works with a nil registry (serves an empty page), so callers can
// expose the endpoint unconditionally.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// JSONHandler serves the registry's JSON snapshot — the /metrics.json
// exposition scripts and CI gates consume with jq. Nil-safe like
// Handler.
func JSONHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		r.WriteJSON(w)
	})
}

// AttachPprof mounts the net/http/pprof profiling handlers on mux
// under /debug/pprof/ — live CPU/heap/goroutine profiles from a
// running daemon. Callers gate this behind a flag: the endpoints are
// for operators, not for untrusted networks.
func AttachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// NewServer wraps a handler in an http.Server with the exposition
// timeouts set: ReadHeaderTimeout so a stalled client cannot pin a
// connection in header-read forever, IdleTimeout so keep-alive
// connections are reaped. Every HTTP listener in this repo — the
// one-shot exposition endpoints and the plan-serving daemon — goes
// through this constructor so none is deployed without timeouts.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// Exposition is a live metrics endpoint started by StartExposition —
// the shared "-serve" wiring of mccio-sim and mccio-bench.
type Exposition struct {
	ln  net.Listener
	srv *http.Server
}

// StartExposition binds addr, serves /metrics (Prometheus text) and
// /metrics.json (JSON snapshot) in a background goroutine (with the
// NewServer timeouts), and logs the scrape URL to logw (when non-nil)
// using the bound address, so ":0" reports the actual port. withPprof
// also mounts the net/http/pprof handlers under /debug/pprof/ (the
// -pprof flag of mccio-bench).
func StartExposition(addr string, r *Registry, withPprof bool, logw io.Writer) (*Exposition, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(r))
	mux.Handle("/metrics.json", JSONHandler(r))
	if withPprof {
		AttachPprof(mux)
	}
	srv := NewServer(mux)
	go srv.Serve(ln)
	if logw != nil {
		fmt.Fprintf(logw, "serving metrics on http://%s/metrics\n", ln.Addr())
		if withPprof {
			fmt.Fprintf(logw, "serving profiles on http://%s/debug/pprof/\n", ln.Addr())
		}
	}
	return &Exposition{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address.
func (e *Exposition) Addr() net.Addr { return e.ln.Addr() }

// Close stops serving and releases the listener.
func (e *Exposition) Close() error { return e.srv.Close() }

// Block logs msg to logw (when non-nil) and blocks forever — the
// tail of a "-serve" run that keeps the endpoint scrapable after the
// work finishes, until the process is interrupted.
func (e *Exposition) Block(logw io.Writer, msg string) {
	if logw != nil {
		fmt.Fprintln(logw, msg)
	}
	select {}
}
