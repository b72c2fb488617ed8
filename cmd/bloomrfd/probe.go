package main

// Load-generation client mode: bloomrfd -probe-file fires batches from a
// key file at a running server and reports end-to-end throughput — the
// operational tool for comparing the JSON and binary codecs on real
// hardware (docs/performance.md) and for warming or soak-testing a
// deployment. The probe file is plain text: one decimal (or 0x-prefixed)
// key per line for insert/query, or two whitespace-separated bounds per
// line for query-range; blank lines and #-comments are skipped.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// probeOptions carries the -probe-* flag values.
type probeOptions struct {
	File      string
	URL       string
	Filter    string
	Op        string // insert | query | query-range
	Codec     string // binary | json
	Batch     int
	Rounds    int
	AuthToken string
}

// runProbe executes one probe session and writes a summary line to out.
func runProbe(o probeOptions, out io.Writer) error {
	if o.Op != "insert" && o.Op != "query" && o.Op != "query-range" {
		return fmt.Errorf("-probe-op %q must be insert, query or query-range", o.Op)
	}
	if o.Codec != "binary" && o.Codec != "json" {
		return fmt.Errorf("-probe-codec %q must be binary or json", o.Codec)
	}
	if o.Batch < 1 || o.Batch > wire.MaxCount {
		return fmt.Errorf("-probe-batch %d out of range [1,%d]", o.Batch, wire.MaxCount)
	}
	if o.Rounds < 1 {
		return fmt.Errorf("-probe-rounds %d must be ≥ 1", o.Rounds)
	}
	keys, ranges, err := readProbeFile(o.File, o.Op == "query-range")
	if err != nil {
		return err
	}
	items := len(keys)
	if o.Op == "query-range" {
		items = len(ranges)
	}
	if items == 0 {
		return fmt.Errorf("probe file %s holds no usable lines", o.File)
	}

	p := &prober{opts: o, client: &http.Client{Timeout: 5 * time.Minute}}
	start := time.Now()
	for round := 0; round < o.Rounds; round++ {
		if o.Op == "query-range" {
			for lo := 0; lo < len(ranges); lo += o.Batch {
				if err := p.sendRanges(ranges[lo:min(lo+o.Batch, len(ranges))]); err != nil {
					return err
				}
			}
			continue
		}
		for lo := 0; lo < len(keys); lo += o.Batch {
			if err := p.sendKeys(keys[lo:min(lo+o.Batch, len(keys))]); err != nil {
				return err
			}
		}
	}
	elapsed := time.Since(start)
	total := items * o.Rounds
	summary := fmt.Sprintf(
		"bloomrfd probe: op=%s codec=%s filter=%s items=%d batches=%d rounds=%d elapsed=%s throughput=%.0f items/s",
		o.Op, o.Codec, o.Filter, total, p.batches, o.Rounds, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds())
	if o.Op != "insert" {
		summary += fmt.Sprintf(" positives=%d (%.1f%%)", p.positives, 100*float64(p.positives)/float64(total))
	}
	_, err = fmt.Fprintln(out, summary)
	return err
}

// prober holds one session's connection, buffers and counters.
type prober struct {
	opts      probeOptions
	client    *http.Client
	frame     []byte // reused binary request buffer
	batches   int
	positives int
}

// endpoint returns the target URL for the session's op. The filter name
// is one escaped path segment, so a name such as "a/b" reaches its own
// filter rather than a deeper path.
func (p *prober) endpoint() string {
	return strings.TrimSuffix(p.opts.URL, "/") + "/v1/filters/" + url.PathEscape(p.opts.Filter) + "/" + p.opts.Op
}

// post sends one request body and returns the response bytes.
func (p *prober) post(contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequest("POST", p.endpoint(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if p.opts.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+p.opts.AuthToken)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("server answered %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	p.batches++
	return data, nil
}

// sendKeys fires one insert/query batch and folds the response into the
// session counters.
func (p *prober) sendKeys(keys []uint64) error {
	if p.opts.Codec == "json" {
		body, err := json.Marshal(map[string]any{"keys": keys})
		if err != nil {
			return err
		}
		data, err := p.post("application/json", body)
		if err != nil {
			return err
		}
		if p.opts.Op == "query" {
			return p.countJSONResults(data, len(keys))
		}
		return nil
	}
	op := wire.OpQuery
	if p.opts.Op == "insert" {
		op = wire.OpInsert
	}
	p.frame = wire.AppendKeysRequest(p.frame[:0], op, keys)
	data, err := p.post(wire.ContentType, p.frame)
	if err != nil {
		return err
	}
	if p.opts.Op == "query" {
		return p.countBinaryResults(data, len(keys))
	}
	return nil
}

// sendRanges fires one query-range batch.
func (p *prober) sendRanges(ranges [][2]uint64) error {
	if p.opts.Codec == "json" {
		rs := make([]map[string]uint64, len(ranges))
		for i, r := range ranges {
			rs[i] = map[string]uint64{"lo": r[0], "hi": r[1]}
		}
		body, err := json.Marshal(map[string]any{"ranges": rs})
		if err != nil {
			return err
		}
		data, err := p.post("application/json", body)
		if err != nil {
			return err
		}
		return p.countJSONResults(data, len(ranges))
	}
	p.frame = wire.AppendRangesRequest(p.frame[:0], ranges)
	data, err := p.post(wire.ContentType, p.frame)
	if err != nil {
		return err
	}
	return p.countBinaryResults(data, len(ranges))
}

func (p *prober) countJSONResults(data []byte, want int) error {
	var resp struct {
		Results []bool `json:"results"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		return fmt.Errorf("decoding JSON response: %w", err)
	}
	if len(resp.Results) != want {
		return fmt.Errorf("response carries %d results, sent %d items", len(resp.Results), want)
	}
	for _, ok := range resp.Results {
		if ok {
			p.positives++
		}
	}
	return nil
}

func (p *prober) countBinaryResults(data []byte, want int) error {
	h, err := wire.ParseHeader(data)
	if err != nil {
		return fmt.Errorf("decoding binary response: %w", err)
	}
	out, err := wire.DecodeResult(h, data[wire.HeaderSize:], nil)
	if err != nil {
		return fmt.Errorf("decoding binary response: %w", err)
	}
	if len(out) != want {
		return fmt.Errorf("response carries %d results, sent %d items", len(out), want)
	}
	for _, ok := range out {
		if ok {
			p.positives++
		}
	}
	return nil
}

// readProbeFile parses the probe file into keys or, when wantRanges is
// set, [lo, hi] pairs.
func readProbeFile(path string, wantRanges bool) ([]uint64, [][2]uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var (
		keys   []uint64
		ranges [][2]uint64
		lineNo int
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if wantRanges {
			if len(fields) != 2 {
				return nil, nil, fmt.Errorf("%s:%d: query-range needs \"lo hi\", got %q", path, lineNo, line)
			}
			lo, err1 := strconv.ParseUint(fields[0], 0, 64)
			hi, err2 := strconv.ParseUint(fields[1], 0, 64)
			if err1 != nil || err2 != nil {
				return nil, nil, fmt.Errorf("%s:%d: bounds must be unsigned 64-bit integers", path, lineNo)
			}
			ranges = append(ranges, [2]uint64{lo, hi})
			continue
		}
		if len(fields) != 1 {
			return nil, nil, fmt.Errorf("%s:%d: one key per line, got %q", path, lineNo, line)
		}
		k, err := strconv.ParseUint(fields[0], 0, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("%s:%d: %q is not an unsigned 64-bit integer", path, lineNo, fields[0])
		}
		keys = append(keys, k)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return keys, ranges, nil
}
