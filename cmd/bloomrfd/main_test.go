package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
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

// writeFile drops body into a temp probe file and returns its path.
func writeFile(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "probe.txt")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestProbe drives the closed-loop -probe-file client against a real API
// for every codec × op, over a plain filter name and one that needs path
// escaping. Inserted keys must all be present afterwards, and a query or
// query-range over keys the filter holds must report every item positive.
func TestProbe(t *testing.T) {
	const n, batch = 1000, 128
	keys := make([]uint64, n)
	var keyLines, rangeLines strings.Builder
	for i := range keys {
		keys[i] = uint64(i) * 7
		fmt.Fprintf(&keyLines, "%d\n", keys[i])
		fmt.Fprintf(&rangeLines, "%d %d\n", keys[i], keys[i]+3)
	}
	keyFile, rangeFile := writeFile(t, keyLines.String()), writeFile(t, rangeLines.String())

	for _, filter := range []string{"probe", "a/b"} {
		for _, codec := range []string{"json", "binary"} {
			for _, op := range []string{"insert", "query", "query-range"} {
				t.Run(codec+"/"+op+"/"+url.PathEscape(filter), func(t *testing.T) {
					reg := server.NewRegistry()
					f, err := reg.Create(filter, server.FilterOptions{ExpectedKeys: 10_000, Shards: 4})
					if err != nil {
						t.Fatal(err)
					}
					if op != "insert" {
						f.InsertBatch(keys)
					}
					ts := httptest.NewServer(server.NewAPI(reg))
					defer ts.Close()
					file := keyFile
					if op == "query-range" {
						file = rangeFile
					}
					var out bytes.Buffer
					err = runProbe(probeOptions{
						File: file, URL: ts.URL, Filter: filter, Op: op,
						Codec: codec, Batch: batch, Rounds: 1,
					}, &out)
					if err != nil {
						t.Fatal(err)
					}
					if want := fmt.Sprintf("items=%d batches=%d", n, (n+batch-1)/batch); !strings.Contains(out.String(), want) {
						t.Fatalf("summary %q lacks %q", out.String(), want)
					}
					if op == "insert" {
						got := make([]bool, n)
						f.MayContainBatch(keys, got)
						for i, ok := range got {
							if !ok {
								t.Fatalf("inserted key %d answered negative", keys[i])
							}
						}
						return
					}
					if want := fmt.Sprintf("positives=%d (100.0%%)", n); !strings.Contains(out.String(), want) {
						t.Fatalf("summary %q lacks %q", out.String(), want)
					}
				})
			}
		}
	}
}

// TestProbeRefusesMalformedLines pins the probe file parser: a line that
// does not fit the op is refused with its line number (blank lines and
// comments still count), before any request is sent.
func TestProbeRefusesMalformedLines(t *testing.T) {
	for _, tc := range []struct {
		name, op, body, want string
	}{
		{"point-two-fields", "query", "1\n2 3\n", ":2: one key per line"},
		{"point-not-integer", "insert", "1\n\n# comment\nx7\n", ":4: \"x7\" is not an unsigned 64-bit integer"},
		{"range-one-field", "query-range", "1 2\n3\n", `:2: query-range needs "lo hi"`},
		{"range-not-integer", "query-range", "1 z\n", ":1: bounds must be unsigned 64-bit integers"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := runProbe(probeOptions{
				File: writeFile(t, tc.body), URL: "http://127.0.0.1:1", Filter: "probe",
				Op: tc.op, Codec: "binary", Batch: 16, Rounds: 1,
			}, io.Discard)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("runProbe = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}
