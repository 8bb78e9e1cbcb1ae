package debughttp

import (
	"strings"
	"testing"
)

func TestServeDebug(t *testing.T) {
	addr, closer, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeDebug: %v", err)
	}
	if addr == "" || !strings.Contains(addr, ":") {
		t.Fatalf("bad resolved addr %q", addr)
	}
	// Second bind on a distinct ephemeral port must also work.
	addr2, closer2, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatalf("second ServeDebug: %v", err)
	}
	if addr2 == addr {
		t.Fatalf("both ephemeral binds resolved to %q", addr)
	}
	if err := closer2.Close(); err != nil {
		t.Fatalf("close second endpoint: %v", err)
	}
	// Closing the endpoint must free its port: rebinding the exact
	// address succeeds once the closer has run (the historical leak kept
	// the listener for the whole process lifetime).
	if err := closer.Close(); err != nil {
		t.Fatalf("close first endpoint: %v", err)
	}
	addr3, closer3, err := ServeDebug(addr)
	if err != nil {
		t.Fatalf("rebind %s after close: %v", addr, err)
	}
	if addr3 != addr {
		t.Fatalf("rebind resolved to %q, want %q", addr3, addr)
	}
	closer3.Close()
}
