package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// insertBodyOfSize builds a syntactically valid insert body of exactly
// total bytes out of many zero-padded string keys (U64 accepts the string
// form, and ParseUint accepts leading zeros). Many small tokens rather
// than one giant one: the decoder then consumes the body incrementally
// instead of buffering all 64 MiB, which keeps the test fast. At 65 bytes
// per element a 64 MiB body stays within MaxBatch keys.
func insertBodyOfSize(total int) string {
	var b strings.Builder
	b.Grow(total)
	b.WriteString(`{"keys":[`)
	el := `"` + strings.Repeat("0", 62) + `1",`
	for b.Len()+2*len(el)+2 <= total {
		b.WriteString(el)
	}
	// Final element zero-padded so the body lands exactly on total.
	b.WriteString(`"` + strings.Repeat("0", total-b.Len()-len(`"1"]}`)) + `1"]}`)
	return b.String()
}

// TestOversizedBody413 pins the 413 satellite at the exact boundary: a
// body of maxBodyBytes parses (MaxBytesReader only errors when a read
// crosses the limit), one byte more is shed with 413 and a message that
// names the limit and the fix — not the old generic 400.
func TestOversizedBody413(t *testing.T) {
	a, f := newBinaryTestAPI(t, FilterOptions{ExpectedKeys: 1000})

	at := insertBodyOfSize(maxBodyBytes)
	if len(at) != maxBodyBytes {
		t.Fatalf("test body is %d bytes, want %d", len(at), maxBodyBytes)
	}
	if code, body := doReq(t, a, "POST", "/v1/filters/f/insert", at); code != http.StatusOK {
		t.Fatalf("body at the limit: %d %s, want 200", code, body)
	}
	if !f.MayContain(1) {
		t.Fatal("key from limit-sized body not inserted")
	}

	over := insertBodyOfSize(maxBodyBytes + 1)
	code, body := doReq(t, a, "POST", "/v1/filters/f/insert", over)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body one over the limit: %d %s, want 413", code, body)
	}
	if !strings.Contains(body, fmt.Sprintf("%d MiB", maxBodyBytes>>20)) ||
		!strings.Contains(body, "split the batch") {
		t.Fatalf("413 body does not explain the limit: %s", body)
	}
}

// fillReader is an endless stream of one byte.
type fillReader byte

func (c fillReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(c)
	}
	return len(p), nil
}

// TestOptionalBodyOversized413 pins that the endpoints whose body may be
// empty share the body rules of every other endpoint: more than 64 MiB is
// a 413, where their own inline decoders once answered 400.
func TestOptionalBodyOversized413(t *testing.T) {
	a, _ := newBinaryTestAPI(t, FilterOptions{ExpectedKeys: 1000, Shards: 2, Partitioning: PartitionRange})
	for _, path := range []string{"/v1/replication/promote", "/v1/filters/f/split"} {
		body := io.MultiReader(strings.NewReader(`{"force":`), io.LimitReader(fillReader(' '), maxBodyBytes))
		rec := httptest.NewRecorder()
		a.ServeHTTP(rec, httptest.NewRequest("POST", path, body))
		if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "split the batch") {
			t.Errorf("POST %s with %d+ bytes: %d %s, want 413", path, maxBodyBytes, rec.Code, rec.Body)
		}
	}
}

// TestSkewAlertFiresWithoutScrape is the regression test for the skew
// satellite: the alert used to be evaluated only inside /metrics scrapes,
// so a deployment with no Prometheus scraper never learned about a hot
// span. Mutations must now trigger the check on their own.
func TestSkewAlertFiresWithoutScrape(t *testing.T) {
	reg := NewRegistry()
	var logs bytes.Buffer
	api := NewConfiguredAPI(reg, nil, Config{
		SkewAlertThreshold: 2.0,
		Logf:               func(format string, args ...any) { fmt.Fprintf(&logs, format+"\n", args...) },
	})
	hot, err := NewSharded(FilterOptions{ExpectedKeys: 100_000, Shards: 8, Partitioning: PartitionRange})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("hot", hot); err != nil {
		t.Fatal(err)
	}

	// Load a hot span purely through the mutation path — never touching
	// /metrics or /v1/filters/hot.
	var sb strings.Builder
	sb.WriteString(`{"keys":[`)
	for i := 0; i < 10_000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", i) // all land in span 0 of 8
	}
	sb.WriteString(`]}`)
	if code, body := doReq(t, api, "POST", "/v1/filters/hot/insert", sb.String()); code != http.StatusOK {
		t.Fatalf("insert: %d %s", code, body)
	}

	if got := strings.Count(logs.String(), "key_skew_alert"); got != 1 {
		t.Fatalf("mutation path logged %d skew warnings, want 1 (no scrape happened):\n%s",
			got, logs.String())
	}

	// Repeated inserts inside the rate-limit window neither re-check nor
	// re-log: the alert stays a transition edge, not a per-request log line.
	if code, body := doReq(t, api, "POST", "/v1/filters/hot/insert", `{"keys":[5]}`); code != http.StatusOK {
		t.Fatalf("second insert: %d %s", code, body)
	}
	if got := strings.Count(logs.String(), "key_skew_alert"); got != 1 {
		t.Fatalf("second insert re-logged the alert: %d\n%s", got, logs.String())
	}
}
