//go:build linux

package main

// End-to-end checks against the real bloomrfd binary. TestE2E builds the
// daemon once and runs each scenario as a parallel subtest:
//
//   - restart: a snapshot, a WAL-only tail and a journaled span split each
//     survive SIGKILL;
//   - replication: a follower bootstraps, tails the WAL, refuses writes and
//     rides out a primary restart;
//   - failover: a standby promotes at epoch 2 with zero acked-write loss,
//     the restarted old primary is fenced, then rejoins as a follower;
//   - split: auto-split divides a hot span under skewed binary-codec load;
//   - refusals and flags: main's startup checks, and the flag table in
//     docs/server.md.
//
// Every daemon runs with Pdeathsig=SIGKILL and is killed by a t.Cleanup,
// so none outlives the test, whether it fails or is killed by -timeout.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wire"
)

func TestE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the bloomrfd binary")
	}
	bin := filepath.Join(t.TempDir(), "bloomrfd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, sc := range []struct {
		name string
		run  func(t *testing.T, bin string)
	}{
		{"restart", e2eRestart},
		{"replication", e2eReplication},
		{"failover", e2eFailover},
		{"split", e2eSplit},
		{"refusals", e2eRefusals},
		{"flags", e2eFlags},
	} {
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			sc.run(t, bin)
		})
	}
}

// e2eRestart: phase 1 snapshots and SIGKILLs, phase 2 SIGKILLs with keys
// only in the WAL (-wal-sync always, so an ack implies fsync), phase 3
// SIGKILLs after a live span split. Each restart must answer exactly as
// before and still hold every loaded key.
func e2eRestart(t *testing.T, bin string) {
	c := newCluster(t, bin, "")
	d := c.start("server", "-data-dir", c.path("data"), "-snapshot-interval", "0", "-wal-sync", "always")

	d.post("/v1/filters", `{"name":"users","expected_keys":100000,"bits_per_key":16,"shards":4}`)
	d.insert("users", seq(1000, 3000))
	loaded, absent := seq(1000, 1063), seq(900000001, 900000016)
	var ranges [][2]uint64
	for lo := uint64(1000); lo < 2600; lo += 100 {
		ranges = append(ranges, [2]uint64{lo, lo + 50})
	}
	points := func() []bool { return append(d.query("users", loaded), d.query("users", absent)...) }
	beforePoints, beforeRanges := points(), d.queryRanges("users", ranges)
	d.post("/v1/filters/users/snapshot", "")
	d.kill9()
	d.restart()
	sameAnswers(t, "points after snapshot restore", beforePoints, points())
	sameAnswers(t, "ranges after snapshot restore", beforeRanges, d.queryRanges("users", ranges))
	allTrue(t, "loaded keys after snapshot restore", d.query("users", loaded))
	d.mustMetric("bloomrfd_filter_snapshot_seq", `{filter="users"}`)

	// Phase 2: keys that were never snapshotted come back from WAL replay.
	d.insert("users", seq(500000, 502000))
	walKeys := seq(500000, 500063)
	beforeWAL := d.query("users", walKeys)
	d.kill9()
	d.restart()
	sameAnswers(t, "WAL-only keys after replay", beforeWAL, d.query("users", walKeys))
	allTrue(t, "WAL-only keys after replay", d.query("users", walKeys))
	sameAnswers(t, "points after the second restart", beforePoints, points())
	d.mustMetric("bloomrfd_wal_end_pos", "")
	d.logContains("WAL replay")

	// Phase 3: all keys cluster in the first span of a range filter, so the
	// split lands there, and its journaled record must replay on restart.
	d.post("/v1/filters", `{"name":"spans","expected_keys":100000,"shards":2,"partitioning":"range"}`)
	d.insert("spans", seq(7000, 9000))
	spanKeys := seq(7000, 7063)
	beforeSpan := d.query("spans", spanKeys)
	var split map[string]any
	d.postJSON("/v1/filters/spans/split", "", &split)
	if _, ok := split["split_key"]; !ok {
		t.Fatalf("split response %v lacks split_key", split)
	}
	if n := d.shards("spans"); n != 3 {
		t.Fatalf("split left %d shards, want 3", n)
	}
	d.kill9()
	d.restart()
	if n := d.shards("spans"); n != 3 {
		t.Fatalf("journaled split lost across SIGKILL: %d shards, want 3", n)
	}
	sameAnswers(t, "span keys after split replay", beforeSpan, d.query("spans", spanKeys))
	allTrue(t, "span keys after split replay", d.query("spans", spanKeys))
	if v := d.mustMetric("bloomrfd_filter_splits_total", `{filter="spans"}`); v != 1 {
		t.Fatalf("bloomrfd_filter_splits_total = %v after recovery, want 1", v)
	}
}

// e2eReplication: a token-gated primary holds 2001 snapshotted keys and a
// 10k-key WAL-only tail; a follower must bootstrap, replay the tail and
// answer bit-identically, refuse writes, and stay current across a
// primary SIGKILL and restart.
func e2eReplication(t *testing.T, bin string) {
	c := newCluster(t, bin, "e2e-stream-secret")
	p := c.start("primary", "-data-dir", c.path("data"), "-snapshot-interval", "0",
		"-wal-sync", "always", "-auth-token", c.token)
	p.post("/v1/filters", `{"name":"users","expected_keys":100000,"shards":4,"partitioning":"range"}`)
	p.insert("users", seq(1000, 3000))
	p.post("/v1/filters/users/snapshot", "")
	for off := uint64(0); off < 10000; off += 2500 {
		p.insert("users", seq(700000+off, 700000+off+2499))
	}

	if code, body := p.do("GET", "/v1/replication/stream", "", nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated stream answered %d (%s), want 401", code, body)
	}

	f := c.start("follower", "-follow", p.url, "-auth-token", c.token)
	waitSynced(t, p, f)
	var ranges [][2]uint64
	for lo := uint64(700000); lo < 708000; lo += 500 {
		ranges = append(ranges, [2]uint64{lo, lo + 100})
	}
	for _, keys := range [][]uint64{seq(1000, 1063), seq(700000, 700063), seq(900000001, 900000016)} {
		sameAnswers(t, fmt.Sprintf("follower keys from %d", keys[0]), p.query("users", keys), f.query("users", keys))
	}
	sameAnswers(t, "follower ranges", p.queryRanges("users", ranges), f.queryRanges("users", ranges))
	allTrue(t, "pre-snapshot keys on the follower", f.query("users", seq(1000, 1063)))
	allTrue(t, "WAL-tail keys on the follower", f.query("users", seq(700000, 700063)))

	if code, body := f.do("POST", "/v1/filters/users/insert", "", []byte(`{"key":1}`)); code != http.StatusForbidden {
		t.Fatalf("follower answered a write with %d (%s), want 403", code, body)
	}
	f.mustMetric("bloomrfd_replication_lag_bytes", "")
	if v := f.mustMetric("bloomrfd_readonly", ""); v != 1 {
		t.Fatalf("follower bloomrfd_readonly = %v, want 1", v)
	}

	// New writes reach the follower, before and after a primary restart
	// that the follower rides out by reconnecting.
	tail := func(lo uint64) {
		p.insert("users", seq(lo, lo+100))
		waitSynced(t, p, f)
		keys := seq(lo, lo+63)
		sameAnswers(t, fmt.Sprintf("tail from %d", lo), p.query("users", keys), f.query("users", keys))
		allTrue(t, fmt.Sprintf("tail from %d on the follower", lo), f.query("users", keys))
	}
	tail(800000)
	p.kill9()
	p.restart()
	tail(810000)
}

// e2eFailover: a promotable standby (-follow and -data-dir) detects a
// SIGKILLed primary through its heartbeat timeout, promotes at epoch 2
// and answers true for every key the dead primary acknowledged. The
// restarted old primary answers 409 once it hears of epoch 2, and
// re-pointed at the new primary it rejoins and serves the same answers.
func e2eFailover(t *testing.T, bin string) {
	c := newCluster(t, bin, "e2e-failover-secret")
	p := c.start("primary", "-data-dir", c.path("primary"), "-snapshot-interval", "0",
		"-wal-sync", "always", "-auth-token", c.token)
	s := c.start("standby", "-follow", p.url, "-data-dir", c.path("standby"),
		"-wal-sync", "always", "-auth-token", c.token, "-replication-heartbeat-timeout", "2s")

	p.post("/v1/filters", `{"name":"ledger","expected_keys":100000,"shards":4,"partitioning":"range"}`)
	for off := uint64(0); off < 20000; off += 4000 {
		p.insert("ledger", seq(1000+off, 1000+off+3999)) // every one acked
	}
	waitSynced(t, p, s)
	p.kill9()

	eventually(t, 10*time.Second, "standby reports primary_unreachable", func() bool {
		r := s.status().Replication
		return r != nil && r.PrimaryUnreachable
	})
	var promote struct {
		Promoted bool   `json:"promoted"`
		Epoch    uint64 `json:"epoch"`
	}
	s.postJSON("/v1/replication/promote", "", &promote)
	if !promote.Promoted || promote.Epoch != 2 {
		t.Fatalf("promote = %+v, want promoted at epoch 2", promote)
	}
	s.postJSON("/v1/replication/promote", "", &promote)
	if promote.Promoted {
		t.Fatalf("repeat promote = %+v, want an idempotent no-op", promote)
	}
	if role := s.status().Role; role != "primary" {
		t.Fatalf("promoted standby reports role %q, want primary", role)
	}
	if v := s.mustMetric("bloomrfd_epoch", ""); v != 2 {
		t.Fatalf("promoted standby bloomrfd_epoch = %v, want 2", v)
	}
	allTrue(t, "acked writes on the new primary", s.query("ledger", seq(1000, 20999)))
	s.insert("ledger", seq(900000, 900100))
	allTrue(t, "post-failover writes", s.query("ledger", seq(900000, 900100)))

	// The old primary restarts on its own data at epoch 1. The handshake a
	// follower of the new world performs fences it, and every mutation
	// after that answers 409 too.
	p.restart()
	if code, body := p.do("GET", "/v1/replication/stream?from=0&epoch=2", c.token, nil); code != http.StatusConflict {
		t.Fatalf("old primary's stream at epoch 2 answered %d (%s), want 409", code, body)
	}
	if code, body := p.do("POST", "/v1/filters/ledger/insert", c.token, []byte(`{"keys":[31337]}`)); code != http.StatusConflict {
		t.Fatalf("fenced old primary answered a write with %d (%s), want 409", code, body)
	}
	if !p.status().Fenced {
		t.Fatal("old primary does not report fenced")
	}
	p.kill9()

	r := c.start("rejoin", "-follow", s.url, "-data-dir", c.path("primary-rejoin"),
		"-wal-sync", "always", "-auth-token", c.token)
	waitSynced(t, s, r)
	if e := r.status().Epoch; e != 2 {
		t.Fatalf("rejoined follower reports epoch %d, want 2", e)
	}
	for _, lo := range []uint64{1000, 17000, 900000} {
		keys := seq(lo, lo+100)
		sameAnswers(t, fmt.Sprintf("rejoined follower keys from %d", lo), s.query("ledger", keys), r.query("ledger", keys))
	}
}

// e2eSplit: 60k keys uniform in [0, 2^40) all land in the first of four
// 2^62-wide spans, so key_skew starts near 4. Waves of binary-codec
// inserts must drive auto-split until the skew is back under 2.5, with
// not one error response while the routing table is swapped live.
// Uniform keys inside the cluster let the histogram-median splits
// converge, where a point mass could not be divided.
func e2eSplit(t *testing.T, bin string) {
	c := newCluster(t, bin, "")
	d := c.start("server", "-data-dir", c.path("data"), "-snapshot-interval", "0",
		"-auto-split-skew-threshold", "2")
	d.post("/v1/filters", `{"name":"hot","expected_keys":200000,"shards":4,"partitioning":"range"}`)

	rng := rand.New(rand.NewPCG(7, 0))
	keys := make([]uint64, 60000)
	for i := range keys {
		keys[i] = rng.Uint64N(1 << 40)
	}
	skew := func() float64 { return d.mustMetric("bloomrfd_filter_key_skew", `{filter="hot"}`) }

	d.binaryWave("hot", wire.OpInsert, keys)
	first := skew()
	deadline := time.Now().Add(60 * time.Second)
	var last float64
	for {
		// Each wave re-arms the auto-split check, which runs at most once a
		// second per filter.
		d.binaryWave("hot", wire.OpInsert, keys)
		last = skew()
		splits, ok := d.metric("bloomrfd_filter_splits_total", `{filter="hot"}`)
		t.Logf("key_skew=%v splits_total=%v", last, splits)
		if ok && last <= 2.5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto-split did not converge: key_skew=%v splits_total=%v", last, splits)
		}
		time.Sleep(1100 * time.Millisecond)
	}
	// The first scrape may already follow the first episode's improvement.
	if !(last < first || first <= 2.5) {
		t.Fatalf("key_skew never dropped: first %v, final %v", first, last)
	}
	allTrue(t, "inserted keys across the grown topology", d.binaryWave("hot", wire.OpQuery, keys))
	if n := d.shards("hot"); n <= 4 {
		t.Fatalf("shard count never grew: %d", n)
	}
	d.logContains("info=span_split")
}

// e2eRefusals runs the binary with each misconfiguration main refuses:
// it must exit non-zero within 2 s, say why, and never reach the line it
// logs before listening.
func e2eRefusals(t *testing.T, bin string) {
	dataDir := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"partitioning", []string{"-partitioning", "diagonal"}, `-partitioning "diagonal" must be "hash" or "range"`},
		{"wal-sync", []string{"-wal-sync", "sometimes"}, `-wal-sync "sometimes" must be`},
		{"heartbeat-timeout", []string{"-replication-heartbeat-timeout", "500ms"}, "must exceed the 500ms idle-heartbeat interval"},
		{"auto-promote-without-data-dir", []string{"-follow", "http://127.0.0.1:1", "-auto-promote"},
			"-auto-promote requires -data-dir"},
		{"auto-promote-without-timeout", []string{"-follow", "http://127.0.0.1:1", "-data-dir", dataDir, "-auto-promote"},
			"-auto-promote requires -replication-heartbeat-timeout > 0"},
		{"pprof-not-loopback", []string{"-pprof", "0.0.0.0:6060"}, "must bind a loopback address"},
		{"log-format", []string{"-log-format", "xml"}, `-log-format "xml" must be "text" or "json"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, append([]string{"-addr", freeAddr(t)}, tc.args...)...)
			cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
			out, err := cmd.CombinedOutput()
			if ctx.Err() != nil {
				t.Fatalf("still running after 2s; output:\n%s", out)
			}
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("exit = %v, want a non-zero status; output:\n%s", err, out)
			}
			if !bytes.Contains(out, []byte(tc.want)) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out)
			}
			if bytes.Contains(out, []byte("listening on")) {
				t.Fatalf("refused configuration opened a listener:\n%s", out)
			}
		})
	}
}

// e2eFlags holds the flag table in docs/server.md to `bloomrfd -h`, one
// row per flag.
func e2eFlags(t *testing.T, bin string) {
	help, err := exec.Command(bin, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("bloomrfd -h: %v\n%s", err, help)
	}
	var flags []string
	for _, m := range regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`).FindAllSubmatch(help, -1) {
		flags = append(flags, string(m[1]))
	}

	doc, err := os.ReadFile("../../docs/server.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(doc), "\nFlags:\n\n")
	if !ok {
		t.Fatal(`docs/server.md has no "Flags:" table`)
	}
	table, _, _ = strings.Cut(table, "\n\n")
	var rows []string
	for _, m := range regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)` \\|").FindAllStringSubmatch(table, -1) {
		rows = append(rows, m[1])
	}
	slices.Sort(flags)
	slices.Sort(rows)
	if !slices.Equal(flags, rows) {
		t.Fatalf("docs/server.md flag rows %v\ndo not match bloomrfd -h %v", rows, flags)
	}
}

// cluster holds one scenario's binary, working directory and bearer token.
type cluster struct {
	t     *testing.T
	bin   string
	dir   string
	token string
}

func newCluster(t *testing.T, bin, token string) *cluster {
	return &cluster{t: t, bin: bin, dir: t.TempDir(), token: token}
}

func (c *cluster) path(name string) string { return filepath.Join(c.dir, name) }

// start runs the binary with args on a free loopback port, logging to
// <name>.log, and returns once /healthz answers.
func (c *cluster) start(name string, args ...string) *daemon {
	c.t.Helper()
	log, err := os.Create(c.path(name + ".log"))
	if err != nil {
		c.t.Fatal(err)
	}
	addr := freeAddr(c.t)
	d := &daemon{t: c.t, bin: c.bin, args: append([]string{"-addr", addr}, args...),
		url: "http://" + addr, token: c.token, log: log}
	c.t.Cleanup(func() {
		d.kill9()
		if c.t.Failed() {
			out, _ := os.ReadFile(log.Name())
			c.t.Logf("%s log:\n%s", name, out)
		}
		log.Close()
	})
	d.restart()
	return d
}

// daemon is one bloomrfd process. restart brings it back on the same
// address, flags and log file.
type daemon struct {
	t     *testing.T
	bin   string
	args  []string
	url   string
	token string // presented as a bearer credential by post
	log   *os.File
	cmd   *exec.Cmd
	done  chan struct{} // closed once cmd has exited
}

// restart starts the process, which must not be running, and waits until
// it is healthy.
func (d *daemon) restart() {
	d.t.Helper()
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = d.log, d.log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		d.t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait() // a SIGKILLed daemon's exit status says nothing
		close(done)
	}()
	d.cmd, d.done = cmd, done
	d.waitHealthy()
}

func (d *daemon) waitHealthy() {
	d.t.Helper()
	eventually(d.t, 10*time.Second, d.url+" answers /healthz", func() bool {
		select {
		case <-d.done:
			d.t.Fatalf("%s exited during start-up", d.log.Name())
		default:
		}
		code, _ := d.do("GET", "/healthz", "", nil)
		return code == http.StatusOK
	})
}

// kill9 SIGKILLs the process and waits for it to exit; it is a no-op on a
// process that already has.
func (d *daemon) kill9() {
	if d.cmd == nil {
		return // never started
	}
	_ = d.cmd.Process.Kill() // fails only once the process is gone
	<-d.done
}

var client = &http.Client{Timeout: 30 * time.Second}

// do sends one request, presenting token when it is non-empty, and
// returns the status and body.
func (d *daemon) do(method, path, token string, body []byte) (int, []byte) {
	d.t.Helper()
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		d.t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	return send(req)
}

// send runs one request; a transport error reads as status 0.
func send(req *http.Request) (int, []byte) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	return resp.StatusCode, data
}

// post sends an authenticated POST that must succeed (2xx).
func (d *daemon) post(path, body string) []byte {
	d.t.Helper()
	code, data := d.do("POST", path, d.token, []byte(body))
	if code/100 != 2 {
		d.t.Fatalf("POST %s answered %d: %s", path, code, data)
	}
	return data
}

func (d *daemon) postJSON(path, body string, v any) {
	d.t.Helper()
	if err := json.Unmarshal(d.post(path, body), v); err != nil {
		d.t.Fatalf("POST %s: %v", path, err)
	}
}

func (d *daemon) getJSON(path string, v any) {
	d.t.Helper()
	code, data := d.do("GET", path, "", nil)
	if code != http.StatusOK {
		d.t.Fatalf("GET %s answered %d: %s", path, code, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		d.t.Fatalf("GET %s: %v", path, err)
	}
}

func (d *daemon) insert(filter string, keys []uint64) {
	d.t.Helper()
	body, _ := json.Marshal(map[string][]uint64{"keys": keys})
	d.post("/v1/filters/"+filter+"/insert", string(body))
}

// query returns the filter's answer for each key.
func (d *daemon) query(filter string, keys []uint64) []bool {
	d.t.Helper()
	body, _ := json.Marshal(map[string][]uint64{"keys": keys})
	return d.results("/v1/filters/"+filter+"/query", string(body), len(keys))
}

// queryRanges returns the filter's answer for each [lo, hi] range.
func (d *daemon) queryRanges(filter string, ranges [][2]uint64) []bool {
	d.t.Helper()
	type bounds struct {
		Lo uint64 `json:"lo"`
		Hi uint64 `json:"hi"`
	}
	rs := make([]bounds, len(ranges))
	for i, r := range ranges {
		rs[i] = bounds{r[0], r[1]}
	}
	body, _ := json.Marshal(map[string][]bounds{"ranges": rs})
	return d.results("/v1/filters/"+filter+"/query-range", string(body), len(ranges))
}

func (d *daemon) results(path, body string, n int) []bool {
	d.t.Helper()
	var resp struct {
		Results []bool `json:"results"`
	}
	d.postJSON(path, body, &resp)
	if len(resp.Results) != n {
		d.t.Fatalf("POST %s answered %d results for %d items", path, len(resp.Results), n)
	}
	return resp.Results
}

// binaryWave sends keys to the filter in 2048-key binary-codec requests,
// each of which must answer 200 with a frame covering the whole batch,
// and returns the verdicts of an OpQuery wave.
func (d *daemon) binaryWave(filter string, op wire.Op, keys []uint64) []bool {
	d.t.Helper()
	path := "/v1/filters/" + filter + "/insert"
	if op == wire.OpQuery {
		path = "/v1/filters/" + filter + "/query"
	}
	var out []bool
	var frame []byte
	for lo := 0; lo < len(keys); lo += 2048 {
		batch := keys[lo:min(lo+2048, len(keys))]
		frame = wire.AppendKeysRequest(frame[:0], op, batch)
		req, err := http.NewRequest("POST", d.url+path, bytes.NewReader(frame))
		if err != nil {
			d.t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.ContentType)
		code, data := send(req)
		if code != http.StatusOK {
			d.t.Fatalf("binary %s answered %d: %s", op, code, data)
		}
		h, err := wire.ParseHeader(data)
		if err != nil || int(h.Count) != len(batch) {
			d.t.Fatalf("binary %s answered header %+v (%v) for %d keys", op, h, err, len(batch))
		}
		if op == wire.OpQuery {
			res, err := wire.DecodeResult(h, data[wire.HeaderSize:], nil)
			if err != nil {
				d.t.Fatal(err)
			}
			out = append(out, res...)
		}
	}
	return out
}

// status is GET /v1/replication/status.
type replStatus struct {
	Role        string                    `json:"role"`
	Epoch       uint64                    `json:"epoch"`
	Fenced      bool                      `json:"fenced"`
	Replication *server.ReplicationStatus `json:"replication"`
	WAL         *struct {
		EndPos uint64 `json:"end_pos"`
	} `json:"wal"`
}

func (d *daemon) status() replStatus {
	d.t.Helper()
	var st replStatus
	d.getJSON("/v1/replication/status", &st)
	return st
}

func (d *daemon) shards(filter string) int {
	d.t.Helper()
	var st server.ShardedStats
	d.getJSON("/v1/filters/"+filter, &st)
	return st.Shards
}

// metric scrapes /metrics for the sample name{labels}; labels is the
// rendered label set, such as `{filter="users"}`, or empty.
func (d *daemon) metric(name, labels string) (float64, bool) {
	d.t.Helper()
	code, data := d.do("GET", "/metrics", "", nil)
	if code != http.StatusOK {
		d.t.Fatalf("GET /metrics answered %d: %s", code, data)
	}
	prefix := name + labels + " "
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				d.t.Fatalf("metric %s%s: %v", name, labels, err)
			}
			return f, true
		}
	}
	return 0, false
}

func (d *daemon) mustMetric(name, labels string) float64 {
	d.t.Helper()
	v, ok := d.metric(name, labels)
	if !ok {
		d.t.Fatalf("%s /metrics lacks %s%s", d.url, name, labels)
	}
	return v
}

func (d *daemon) logContains(s string) {
	d.t.Helper()
	data, err := os.ReadFile(d.log.Name())
	if err != nil {
		d.t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(s)) {
		d.t.Fatalf("%s lacks %q", d.log.Name(), s)
	}
}

// waitSynced waits until follower has applied the primary's WAL through
// its current end.
func waitSynced(t *testing.T, primary, follower *daemon) {
	t.Helper()
	want := primary.status().WAL.EndPos
	eventually(t, 20*time.Second, fmt.Sprintf("follower applies through %d", want), func() bool {
		r := follower.status().Replication
		return r != nil && r.AppliedPos >= want
	})
}

// eventually polls cond every 20 ms until it holds or timeout passes.
func eventually(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %s waiting until %s", timeout, what)
		}
	}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// seq returns the keys lo..hi inclusive.
func seq(lo, hi uint64) []uint64 {
	keys := make([]uint64, 0, hi-lo+1)
	for k := lo; k <= hi; k++ {
		keys = append(keys, k)
	}
	return keys
}

func sameAnswers(t *testing.T, what string, want, got []bool) {
	t.Helper()
	if !slices.Equal(want, got) {
		t.Fatalf("%s: answers changed\nwant %v\ngot  %v", what, want, got)
	}
}

// allTrue fails on any false answer: the filter has no false negatives, so
// an acknowledged key answering false is a lost write.
func allTrue(t *testing.T, what string, got []bool) {
	t.Helper()
	if i := slices.Index(got, false); i >= 0 {
		t.Fatalf("%s: item %d of %d answered false", what, i, len(got))
	}
}
