package main

import (
	"net/http"
	"testing"
	"time"
)

// TestNewServerTimeouts pins the listener timeouts: headers must arrive
// within 10s and idle keep-alive connections close after 2 minutes,
// while reads and writes stay unbounded so ?wait= long-polls (up to 60s)
// and large submissions are never cut off.
func TestNewServerTimeouts(t *testing.T) {
	srv := newServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 2*time.Minute {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s, 2m", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("WriteTimeout %v, ReadTimeout %v; want both unset", srv.WriteTimeout, srv.ReadTimeout)
	}
}
