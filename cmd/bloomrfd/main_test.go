package main

import (
	"fmt"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestDrainServerLogsTimeout pins the shutdown-timeout satellite: a drain
// that expires with a request still in flight must say so out loud and
// return promptly (so the final snapshot still runs), not swallow the
// DeadlineExceeded and leave the operator guessing.
func TestDrainServerLogsTimeout(t *testing.T) {
	release := make(chan struct{})
	handlerDone := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(handlerDone)
		<-release // hang until the test lets go
	})}
	defer close(release)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)

	// Park one request inside the handler so the drain cannot complete.
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/")
		if err == nil {
			resp.Body.Close()
		}
	}()
	select {
	case <-handlerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the handler")
	}

	var logs []string
	start := time.Now()
	drainServer(srv, 50*time.Millisecond, func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("drainServer took %s with a hung request, want prompt return", took)
	}
	joined := strings.Join(logs, "\n")
	if !strings.Contains(joined, "drain timed out") || !strings.Contains(joined, "still in flight") {
		t.Fatalf("timeout drain logged %q, want an explicit drain-timeout warning", joined)
	}
	if !strings.Contains(joined, "final snapshot still runs") {
		t.Fatalf("warning %q does not reassure that shutdown continues", joined)
	}
}

// TestDrainServerCleanIsQuiet: a drain with nothing in flight completes
// silently — the warning is reserved for the pathological case.
func TestDrainServerCleanIsQuiet(t *testing.T) {
	srv := &http.Server{Handler: http.NewServeMux()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	var logs []string
	drainServer(srv, time.Second, func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	})
	if len(logs) != 0 {
		t.Fatalf("clean drain logged %q, want silence", logs)
	}
}
