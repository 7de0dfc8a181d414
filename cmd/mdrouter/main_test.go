package main

import (
	"context"
	"net/http"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the listener's slow-client defences: a
// header deadline and an idle keep-alive bound, and no whole-request
// deadline that would cut proxied streaming NDJSON bodies.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler(), context.Background())
	if hs.ReadHeaderTimeout != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout < 2*time.Minute {
		t.Errorf("IdleTimeout = %v, want ≥ 2m", hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("ReadTimeout %v / WriteTimeout %v would cut streaming bodies", hs.ReadTimeout, hs.WriteTimeout)
	}
}
