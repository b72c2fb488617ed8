package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/wal"
)

// standby bundles everything a promotable warm standby consists of in tests:
// the API in front of the follower's registry, the follower itself, and the
// promotion target (store + WAL options) the standby would seed on promote.
type standby struct {
	api     *API
	reg     *Registry
	fo      *Follower
	store   *Store
	walOpts wal.Options
}

// standbyOpts tweaks the standby's failover configuration.
type standbyOpts struct {
	hbTimeout   time.Duration
	autoPromote bool
}

// standbyT builds a promotable standby of the primary at primaryURL: a
// follower plus an API configured with a promotion target in a temp dir.
func standbyT(t *testing.T, primaryURL string, o standbyOpts) *standby {
	t.Helper()
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "snapshots"))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	fo, err := NewFollower(primaryURL, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	fo.WithHeartbeatTimeout(o.hbTimeout)
	walOpts := wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncAlways, SegmentBytes: 16 << 10}
	api := NewConfiguredAPI(reg, store, Config{
		ReadOnly:       true,
		Replication:    fo.Status,
		ReplicationLag: fo.LagSnapshot,
		Promotion: &PromotionConfig{
			Store:      store,
			WALOptions: walOpts,
			Follower:   fo,
		},
		HeartbeatTimeout: o.hbTimeout,
		AutoPromote:      o.autoPromote,
	})
	t.Cleanup(api.Close)
	return &standby{api: api, reg: reg, fo: fo, store: store, walOpts: walOpts}
}

// TestPromotionLifecycle walks the happy failover path end to end in
// process: a caught-up standby promotes to a writable primary at epoch 2,
// serves mutations from a freshly seeded WAL, answers promote idempotently,
// and the old primary is fenced the moment it hears about the new epoch.
func TestPromotionLifecycle(t *testing.T) {
	srv, api, reg := primaryT(t, t.TempDir())
	resp, err := http.Post(srv.URL+"/v1/filters", "application/json",
		strings.NewReader(`{"name":"users","expected_keys":50000,"shards":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	keys := []uint64{11, 22, 33, 44, 55}
	insertHTTP(t, srv, "users", keys)

	sb := standbyT(t, srv.URL, standbyOpts{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sb.fo.Run(ctx)
	waitCaughtUp(t, sb.fo, api.cfg.WAL.End())

	// The standby refuses writes while following.
	code, body := doReq(t, sb.api, "POST", "/v1/filters/users/insert", `{"keys":[99]}`)
	if code != http.StatusForbidden {
		t.Fatalf("insert on follower: %d %s", code, body)
	}

	// Promote: 200, epoch 2, role primary.
	code, body = doReq(t, sb.api, "POST", "/v1/replication/promote", "")
	if code != http.StatusOK || !strings.Contains(body, `"promoted":true`) || !strings.Contains(body, `"epoch":2`) {
		t.Fatalf("promote: %d %s", code, body)
	}
	if got := sb.api.role(); got != "primary" {
		t.Fatalf("promoted role = %q", got)
	}
	// Promotion is idempotent: a second promote is a no-op 200.
	code, body = doReq(t, sb.api, "POST", "/v1/replication/promote", "")
	if code != http.StatusOK || !strings.Contains(body, `"promoted":false`) || !strings.Contains(body, `"epoch":2`) {
		t.Fatalf("repeat promote: %d %s", code, body)
	}

	// The promoted node serves mutations now, into its own WAL.
	code, body = doReq(t, sb.api, "POST", "/v1/filters/users/insert", `{"keys":[66,77]}`)
	if code != http.StatusOK {
		t.Fatalf("insert on promoted primary: %d %s", code, body)
	}
	f, err := sb.reg.Get("users")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range append(keys, 66, 77) {
		if !f.MayContain(k) {
			t.Fatalf("promoted node lost key %d", k)
		}
	}
	// Status and metrics report the new role and epoch.
	code, body = doReq(t, sb.api, "GET", "/v1/replication/status", "")
	if code != http.StatusOK || !strings.Contains(body, `"role":"primary"`) || !strings.Contains(body, `"epoch":2`) {
		t.Fatalf("promoted status: %d %s", code, body)
	}
	_, metrics := doReq(t, sb.api, "GET", "/metrics", "")
	for _, want := range []string{`bloomrfd_role{role="primary"} 1`, "bloomrfd_epoch 2", "bloomrfd_promotions_total 1"} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("promoted metrics missing %q:\n%s", want, grepLines(metrics, "bloomrfd_role"))
		}
	}
	// The promotion-seeded snapshots carry the new epoch, so a restart of
	// the new primary recovers straight into epoch 2.
	if _, man, err := sb.store.Restore("users"); err != nil || man.Epoch != 2 {
		t.Fatalf("seeded snapshot manifest = %+v, err %v; want epoch 2", man, err)
	}

	// The old primary learns about epoch 2 through the stream handshake
	// (this is what its ex-follower, or itself restarted with -follow,
	// sends) and fences permanently: streams and mutations answer 409.
	code, body = doReq(t, api, "GET", "/v1/replication/stream?from=0&epoch=2", "")
	if code != http.StatusConflict || !strings.Contains(body, "fencing") {
		t.Fatalf("old primary stream at epoch 2: %d %s", code, body)
	}
	code, body = doReq(t, api, "POST", "/v1/filters/users/insert", `{"keys":[1000]}`)
	if code != http.StatusConflict || !strings.Contains(body, "fencing") {
		t.Fatalf("old primary insert after fencing: %d %s", code, body)
	}
	if got := api.role(); got != "fenced" {
		t.Fatalf("old primary role = %q", got)
	}
	_, metrics = doReq(t, api, "GET", "/metrics", "")
	if !strings.Contains(metrics, `bloomrfd_role{role="fenced"} 1`) {
		t.Fatalf("old primary metrics missing fenced role:\n%s", grepLines(metrics, "bloomrfd_role"))
	}
	// Its acked state is intact — it only stopped accepting divergence.
	p, _ := reg.Get("users")
	for _, k := range keys {
		if !p.MayContain(k) {
			t.Fatalf("fenced primary lost key %d", k)
		}
	}
}

// TestPromoteRefusals pins the 409 paths: a lagging follower is refused
// (and the refusal names the lag) unless forced, and a follower with no
// promotion target cannot promote at all.
func TestPromoteRefusals(t *testing.T) {
	srv, api, _ := primaryT(t, t.TempDir())
	resp, err := http.Post(srv.URL+"/v1/filters", "application/json",
		strings.NewReader(`{"name":"users","expected_keys":10000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	insertHTTP(t, srv, "users", []uint64{1, 2, 3})

	sb := standbyT(t, srv.URL, standbyOpts{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sb.fo.Run(ctx)
	waitCaughtUp(t, sb.fo, api.cfg.WAL.End())

	// Fake a lag: the primary acked 1000 bytes the follower never applied.
	sb.fo.primaryPos.Store(sb.fo.applied.Load() + 1000)
	code, body := doReq(t, sb.api, "POST", "/v1/replication/promote", "")
	if code != http.StatusConflict || !strings.Contains(body, "lag 1000") {
		t.Fatalf("lagging promote: %d %s", code, body)
	}
	// An unknown body field is rejected, not silently ignored — "force" is
	// too consequential for typo tolerance.
	code, body = doReq(t, sb.api, "POST", "/v1/replication/promote", `{"forse":true}`)
	if code != http.StatusBadRequest {
		t.Fatalf("promote with unknown field: %d %s", code, body)
	}
	// Forcing accepts the documented loss and promotes anyway.
	code, body = doReq(t, sb.api, "POST", "/v1/replication/promote", `{"force":true}`)
	if code != http.StatusOK || !strings.Contains(body, `"epoch":2`) {
		t.Fatalf("forced promote: %d %s", code, body)
	}

	// A follower with no promotion target (no -data-dir) is never promotable.
	reg2 := NewRegistry()
	fo2, err := NewFollower(srv.URL, reg2, nil)
	if err != nil {
		t.Fatal(err)
	}
	bare := NewConfiguredAPI(reg2, nil, Config{ReadOnly: true, Replication: fo2.Status})
	t.Cleanup(bare.Close)
	code, body = doReq(t, bare, "POST", "/v1/replication/promote", "")
	if code != http.StatusConflict || !strings.Contains(body, "-data-dir") {
		t.Fatalf("promote without a target: %d %s", code, body)
	}
}

// TestMutationEpochFencing pins the X-Bloomrfd-Epoch header contract: a
// matching epoch passes, a stale one is refused without consequence, a
// malformed one is a 400, and a higher one proves a newer primary exists —
// the server fences itself permanently.
func TestMutationEpochFencing(t *testing.T) {
	api, _, _, wlog := walAPI(t, t.TempDir())
	defer wlog.Close()
	code, body := doReq(t, api, "POST", "/v1/filters", `{"name":"users","expected_keys":10000}`)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	api.epoch.Store(5) // as if this primary were the product of 4 failovers

	insertAt := func(epochHdr string) (int, string) {
		t.Helper()
		req := httptest.NewRequest("POST", "/v1/filters/users/insert", strings.NewReader(`{"keys":[1]}`))
		if epochHdr != "" {
			req.Header.Set(epochHeader, epochHdr)
		}
		rw := httptest.NewRecorder()
		api.ServeHTTP(rw, req)
		return rw.Code, rw.Body.String()
	}

	if code, body := insertAt("5"); code != http.StatusOK {
		t.Fatalf("insert at the current epoch: %d %s", code, body)
	}
	if code, body := insertAt("not-a-number"); code != http.StatusBadRequest {
		t.Fatalf("insert with a malformed epoch: %d %s", code, body)
	}
	// A stale epoch is refused but does NOT fence: the client is behind,
	// not the server.
	if code, body := insertAt("3"); code != http.StatusConflict || !strings.Contains(body, "stale") {
		t.Fatalf("insert at a stale epoch: %d %s", code, body)
	}
	if api.role() != "primary" {
		t.Fatalf("stale-epoch request fenced the server (role %q)", api.role())
	}
	// A higher epoch proves this server was superseded: fence permanently.
	if code, body := insertAt("7"); code != http.StatusConflict || !strings.Contains(body, "newer primary") {
		t.Fatalf("insert at a higher epoch: %d %s", code, body)
	}
	if api.role() != "fenced" {
		t.Fatalf("higher-epoch request did not fence (role %q)", api.role())
	}
	// Every mutation is now refused, header or not.
	if code, _ := insertAt(""); code != http.StatusConflict {
		t.Fatalf("insert after fencing: %d", code)
	}
	code, body = doReq(t, api, "GET", "/v1/replication/status", "")
	if !strings.Contains(body, `"fenced":true`) {
		t.Fatalf("fenced status: %d %s", code, body)
	}
	_, metrics := doReq(t, api, "GET", "/metrics", "")
	if !strings.Contains(metrics, "bloomrfd_fencing_rejections_total 3") {
		t.Fatalf("fencing rejections not counted:\n%s", grepLines(metrics, "fencing"))
	}
}

// TestWALDegradationLatch drives the WAL-append failpoint through the full
// degradation cycle: the first failed append latches read-only mode (503 +
// Retry-After on mutations, queries unaffected), further mutations inside
// the probe window are shed without touching the WAL, and the one-per-second
// probe unlatches as soon as an append succeeds.
func TestWALDegradationLatch(t *testing.T) {
	api, _, _, wlog := walAPI(t, t.TempDir())
	defer wlog.Close()
	t.Cleanup(faults.Reset)
	code, body := doReq(t, api, "POST", "/v1/filters", `{"name":"users","expected_keys":10000}`)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	code, _ = doReq(t, api, "POST", "/v1/filters/users/insert", `{"keys":[1]}`)
	if code != http.StatusOK {
		t.Fatalf("healthy insert: %d", code)
	}

	faults.Arm("wal.append", faults.Action{Err: errors.New("injected disk failure"), Remaining: 2})

	// First failed append latches degradation.
	req := httptest.NewRequest("POST", "/v1/filters/users/insert", strings.NewReader(`{"keys":[2]}`))
	rw := httptest.NewRecorder()
	api.ServeHTTP(rw, req)
	if rw.Code != http.StatusServiceUnavailable || rw.Header().Get("Retry-After") == "" {
		t.Fatalf("insert during WAL failure: %d (Retry-After %q)", rw.Code, rw.Header().Get("Retry-After"))
	}
	if api.role() != "read-only" {
		t.Fatalf("degraded role = %q", api.role())
	}
	code, body = doReq(t, api, "GET", "/v1/replication/status", "")
	if !strings.Contains(body, `"degraded":"wal-append"`) {
		t.Fatalf("degraded status: %d %s", code, body)
	}
	// Queries keep serving.
	code, _ = doReq(t, api, "POST", "/v1/filters/users/query", `{"key":1}`)
	if code != http.StatusOK {
		t.Fatalf("query during degradation: %d", code)
	}
	_, metrics := doReq(t, api, "GET", "/metrics", "")
	if !strings.Contains(metrics, "bloomrfd_readonly_mode 1") {
		t.Fatalf("degradation gauge not raised:\n%s", grepLines(metrics, "readonly"))
	}

	// The next mutation is the probe (the latch was just set, so the probe
	// slot is free); it burns the failpoint's last charge and fails too.
	code, _ = doReq(t, api, "POST", "/v1/filters/users/insert", `{"keys":[3]}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("probe insert: %d", code)
	}
	// Inside the probe window mutations are shed WITHOUT touching the WAL.
	code, body = doReq(t, api, "POST", "/v1/filters/users/insert", `{"keys":[4]}`)
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "reads only") {
		t.Fatalf("shed insert: %d %s", code, body)
	}
	// After the window, the probe goes through, the (now disarmed) append
	// succeeds, and the latch clears.
	time.Sleep(1100 * time.Millisecond)
	code, _ = doReq(t, api, "POST", "/v1/filters/users/insert", `{"keys":[5]}`)
	if code != http.StatusOK {
		t.Fatalf("insert after recovery: %d", code)
	}
	if api.role() != "primary" {
		t.Fatalf("role after recovery = %q", api.role())
	}
	_, metrics = doReq(t, api, "GET", "/metrics", "")
	if !strings.Contains(metrics, "bloomrfd_readonly_mode 0") {
		t.Fatalf("degradation gauge not cleared:\n%s", grepLines(metrics, "readonly"))
	}
}

// TestHeartbeatLossDetection pins -replication-heartbeat-timeout: while the
// primary streams (even just heartbeats) the follower reports reachable;
// once the primary dies, primary_unreachable trips within the timeout, the
// reconnect backoff grows, and the consecutive-failure count climbs.
func TestHeartbeatLossDetection(t *testing.T) {
	srv, api, _ := primaryT(t, t.TempDir())
	resp, err := http.Post(srv.URL+"/v1/filters", "application/json",
		strings.NewReader(`{"name":"users","expected_keys":10000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	insertHTTP(t, srv, "users", []uint64{1, 2, 3})

	// The timeout must exceed the stream's 500ms idle-heartbeat interval,
	// or a quiet-but-healthy primary trips it between heartbeats.
	sb := standbyT(t, srv.URL, standbyOpts{hbTimeout: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sb.fo.Run(ctx)
	waitCaughtUp(t, sb.fo, api.cfg.WAL.End())
	if st := sb.fo.Status(); st.PrimaryUnreachable {
		t.Fatalf("healthy stream reported unreachable: %+v", st)
	}

	// Kill the primary. The open stream dies and every re-dial fails.
	srv.CloseClientConnections()
	srv.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := sb.fo.Status()
		if st.PrimaryUnreachable && st.ConsecutiveFailures >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("heartbeat loss never detected: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The jittered exponential backoff is visible in status while waiting
	// between dials (which is where the follower spends most of its time).
	sawBackoff := false
	for i := 0; i < 200 && !sawBackoff; i++ {
		sawBackoff = sb.fo.Status().BackoffSeconds > 0
		time.Sleep(5 * time.Millisecond)
	}
	if !sawBackoff {
		t.Fatal("backoff never surfaced in status")
	}
	code, body := doReq(t, sb.api, "GET", "/v1/replication/status", "")
	if code != http.StatusOK || !strings.Contains(body, `"primary_unreachable":true`) {
		t.Fatalf("unreachable status: %d %s", code, body)
	}
	_, metrics := doReq(t, sb.api, "GET", "/metrics", "")
	if !strings.Contains(metrics, "bloomrfd_replication_primary_unreachable 1") {
		t.Fatalf("unreachable gauge not raised:\n%s", grepLines(metrics, "unreachable"))
	}
}

// TestCheckHeartbeatTimeout pins the startup refusal of a heartbeat
// timeout the idle stream cannot satisfy: 0 (disabled) and anything above
// the idle-heartbeat interval pass; the interval itself and anything
// shorter would flip a healthy idle primary to unreachable, so they fail.
func TestCheckHeartbeatTimeout(t *testing.T) {
	for _, tc := range []struct {
		d  time.Duration
		ok bool
	}{
		{0, true},
		{heartbeatEvery + time.Nanosecond, true},
		{5 * time.Second, true},
		{heartbeatEvery, false},
		{300 * time.Millisecond, false},
	} {
		err := CheckHeartbeatTimeout(tc.d)
		if (err == nil) != tc.ok {
			t.Errorf("CheckHeartbeatTimeout(%s) = %v, want ok=%v", tc.d, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), heartbeatEvery.String()) {
			t.Errorf("refusal %q does not name the %s interval", err, heartbeatEvery)
		}
	}
}

// TestAutoPromote pins the guarded self-promotion policy: with -auto-promote
// armed, a fully caught-up standby promotes itself once the primary has been
// silent past the heartbeat timeout — and not a moment before.
func TestAutoPromote(t *testing.T) {
	srv, api, _ := primaryT(t, t.TempDir())
	resp, err := http.Post(srv.URL+"/v1/filters", "application/json",
		strings.NewReader(`{"name":"users","expected_keys":10000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	insertHTTP(t, srv, "users", []uint64{7, 8, 9})

	sb := standbyT(t, srv.URL, standbyOpts{hbTimeout: time.Second, autoPromote: true})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sb.fo.Run(ctx)
	waitCaughtUp(t, sb.fo, api.cfg.WAL.End())

	// A healthy-but-idle primary must not trigger auto-promotion: its idle
	// heartbeats (every 500ms) keep the stream inside the 1s timeout.
	time.Sleep(1500 * time.Millisecond)
	if sb.api.role() != "follower" {
		t.Fatalf("standby promoted itself under a healthy primary (role %q)", sb.api.role())
	}

	srv.CloseClientConnections()
	srv.Close()
	deadline := time.Now().Add(15 * time.Second)
	for sb.api.role() != "primary" {
		if time.Now().After(deadline) {
			t.Fatalf("auto-promotion never happened (role %q, status %+v)", sb.api.role(), sb.fo.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := sb.api.epochValue(); got != 2 {
		t.Fatalf("auto-promoted epoch = %d, want 2", got)
	}
	code, _ := doReq(t, sb.api, "POST", "/v1/filters/users/insert", `{"keys":[10]}`)
	if code != http.StatusOK {
		t.Fatalf("insert after auto-promotion: %d", code)
	}
	f, err := sb.reg.Get("users")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{7, 8, 9, 10} {
		if !f.MayContain(k) {
			t.Fatalf("auto-promoted node lost key %d", k)
		}
	}
}

// TestFailoverHammer is the paper-scenario acceptance test for this PR:
// concurrent writers hammer the primary while injected faults break the
// replication stream and fail WAL appends mid-load; then the primary is
// killed, the standby promotes, and every write the primary ever
// acknowledged must answer true on the new primary — zero acked-write loss.
// The demoted primary's endpoints must answer fencing errors once it hears
// about the new epoch.
func TestFailoverHammer(t *testing.T) {
	t.Cleanup(faults.Reset)
	srv, api, _ := primaryT(t, t.TempDir())
	resp, err := http.Post(srv.URL+"/v1/filters", "application/json",
		strings.NewReader(`{"name":"ledger","expected_keys":200000,"shards":4,"partitioning":"range"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	sb := standbyT(t, srv.URL, standbyOpts{hbTimeout: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sb.fo.Run(ctx)

	// Faults armed during the load: the stream drops three times (forcing
	// reconnect + resume), one dial fails (exercising backoff), and two WAL
	// appends fail on the primary (exercising the degradation latch — those
	// writes answer 503 and are exactly the ones NOT required to survive).
	faults.Arm("replication.stream.drop", faults.Action{Err: errors.New("injected stream break"), Remaining: 3})
	faults.Arm("replication.follower.dial", faults.Action{Err: errors.New("injected dial failure"), Remaining: 1})
	faults.Arm("wal.append", faults.Action{Err: errors.New("injected append failure"), Remaining: 2})

	// Open-loop-ish hammer: 4 writers × 60 paced batches × 50 keys over
	// ~1.5s. Only keys whose insert answered 200 are acked; 503s (the
	// degradation latch, which the armed wal.append faults trip at the
	// start) and transport errors are abandoned, exactly like a client
	// whose write never acked. The pacing matters: the degraded server lets
	// one probe mutation through per second, so the load must outlive the
	// probe window for the latch to clear mid-hammer.
	var (
		mu    sync.Mutex
		acked []uint64
	)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for b := 0; b < 60; b++ {
				batch := make([]uint64, 50)
				for i := range batch {
					batch[i] = rng.Uint64()
				}
				body, _ := json.Marshal(map[string]any{"keys": batch})
				resp, err := http.Post(srv.URL+"/v1/filters/ledger/insert", "application/json",
					strings.NewReader(string(body)))
				if err != nil {
					continue
				}
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					mu.Lock()
					acked = append(acked, batch...)
					mu.Unlock()
				}
				time.Sleep(25 * time.Millisecond)
			}
		}(int64(1000 + w))
	}
	wg.Wait()
	if len(acked) < 1000 {
		t.Fatalf("hammer acked only %d keys; the faults starved the load", len(acked))
	}

	// Replication barrier: the standby catches up to everything the primary
	// acknowledged (stream drops included — it reconnects and resumes).
	waitCaughtUp(t, sb.fo, api.cfg.WAL.End())
	faults.Reset()

	// Crash the primary, then promote the standby.
	srv.CloseClientConnections()
	srv.Close()
	code, body := doReq(t, sb.api, "POST", "/v1/replication/promote", "")
	if code != http.StatusOK || !strings.Contains(body, `"epoch":2`) {
		t.Fatalf("promote after crash: %d %s", code, body)
	}

	// Zero acked-write loss: every key the primary acknowledged answers
	// true on the promoted primary.
	f, err := sb.reg.Get("ledger")
	if err != nil {
		t.Fatal(err)
	}
	lost := 0
	for _, k := range acked {
		if !f.MayContain(k) {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d acked keys lost across failover", lost, len(acked))
	}
	// The new primary serves fresh writes at epoch 2.
	code, _ = doReq(t, sb.api, "POST", "/v1/filters/ledger/insert", `{"keys":[424242]}`)
	if code != http.StatusOK {
		t.Fatalf("insert on new primary: %d", code)
	}
	// The promoted WAL opens with the epoch record: a crash-restart of the
	// new primary recovers into epoch 2, not epoch 1.
	if e, err := RecoverEpochForTest(sb); err != nil || e != 2 {
		t.Fatalf("recovered epoch = %d, err %v; want 2", e, err)
	}

	// The demoted primary (still in-process) hears about epoch 2 on its
	// stream endpoint — the handshake a restarted old primary performs —
	// and fences: mutations and streams answer 409 from then on.
	code, body = doReq(t, api, "GET", fmt.Sprintf("/v1/replication/stream?from=0&epoch=%d", 2), "")
	if code != http.StatusConflict || !strings.Contains(body, "fencing") {
		t.Fatalf("demoted primary stream: %d %s", code, body)
	}
	code, body = doReq(t, api, "POST", "/v1/filters/ledger/insert", `{"keys":[5]}`)
	if code != http.StatusConflict || !strings.Contains(body, "fencing") {
		t.Fatalf("demoted primary insert: %d %s", code, body)
	}
}

// RecoverEpochForTest reads the standby's durable epoch the way a process
// restart would, via the seeded snapshots — the promoted WAL itself is still
// open and cannot be scanned concurrently.
func RecoverEpochForTest(sb *standby) (uint64, error) {
	names, err := sb.store.Names()
	if err != nil {
		return 0, err
	}
	var epoch uint64
	for _, name := range names {
		if _, man, err := sb.store.Restore(name); err == nil && man.Epoch > epoch {
			epoch = man.Epoch
		}
	}
	return epoch, nil
}
