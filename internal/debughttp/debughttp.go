// Package debughttp exposes the Go runtime's pprof and expvar endpoints
// for the long multi-minute experiment sweeps. This is host-side
// observability — wall-clock profiles of the simulator process itself —
// and deliberately lives outside the deterministic surface: nothing it
// serves feeds back into simulation output.
//
// It is a package of its own so that only the commands offering
// -debug-addr (pmemspec-bench, pmemspec-crash, pmemspec-serve) link
// net/http, net/http/pprof, expvar and crypto/tls; a binary that imports
// only the simulator starts without initializing them.
package debughttp

import (
	"expvar"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on DefaultServeMux
	"time"
)

// ServeDebug binds addr (e.g. "localhost:6060") and serves
// /debug/pprof/* and /debug/vars on it in a background goroutine. The
// bind happens synchronously so address errors surface to the caller;
// the returned string is the resolved listen address ("" on error).
// Closing the returned io.Closer shuts the listener and its connections
// down, so short-lived embedders (tests, the serve daemon's drain path)
// do not leak the socket for the rest of the process lifetime.
func ServeDebug(addr string) (string, io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	// Touch expvar so its /debug/vars handler registration is linked in
	// even if no vars are published.
	_ = expvar.Get("cmdline")
	srv := &http.Server{
		Handler: http.DefaultServeMux,
		// A client that connects and never sends a request header must
		// not pin a connection goroutine forever.
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		// Serve returns on Close; its error has nowhere useful to go.
		_ = srv.Serve(ln)
	}()
	return ln.Addr().String(), &debugCloser{srv: srv, ln: ln}, nil
}

// debugCloser shuts the endpoint down. It closes the raw listener as
// well as the server: Server.Close only closes listeners Serve has
// already registered, and the Serve goroutine may not have run yet when
// a short-lived embedder closes — the extra Close makes the port free
// synchronously either way.
type debugCloser struct {
	srv *http.Server
	ln  net.Listener
}

func (c *debugCloser) Close() error {
	err := c.srv.Close()
	_ = c.ln.Close() // idempotent; error is "already closed" in the common case
	return err
}
