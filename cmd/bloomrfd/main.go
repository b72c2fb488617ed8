// Command bloomrfd serves named, sharded bloomRF filters over an HTTP JSON
// API: create filters, insert keys and run point/range queries (single or
// batch) from any HTTP client. See docs/server.md for the API reference and
// docs/replication.md for durability and standby setup.
//
// Usage:
//
//	bloomrfd -addr :8077 -data-dir /var/lib/bloomrfd -snapshot-interval 1m
//
// Quick check once it is running:
//
//	curl -s -XPOST localhost:8077/v1/filters \
//	    -d '{"name":"users","expected_keys":1000000,"bits_per_key":16}'
//	curl -s -XPOST localhost:8077/v1/filters/users/insert -d '{"keys":[42,4711]}'
//	curl -s -XPOST localhost:8077/v1/filters/users/query-range -d '{"lo":4000,"hi":5000}'
//	curl -s -XPOST localhost:8077/v1/filters/users/snapshot -d ''
//
// With -data-dir set, every mutation is committed to a write-ahead log
// (fsync policy under -wal-sync) and every filter is snapshotted to disk —
// on demand via the snapshot endpoint, every -snapshot-interval in the
// background, and once more on graceful shutdown. Startup restores the
// newest intact snapshots and replays the WAL tail on top, so an unclean
// crash loses at most the un-fsynced log tail. Without -data-dir, filters
// live in memory only.
//
// With -follow set, bloomrfd runs as a read-only warm standby instead: it
// bootstraps from the primary's replication stream, tails the primary's
// WAL, answers queries from the replicated state, and rejects mutations
// with 403. Replication lag is visible in /metrics and
// GET /v1/replication/status. When the primary runs with -auth-token, the
// standby presents the same token on the stream.
//
// Adding -data-dir alongside -follow gives the standby a promotion target:
// POST /v1/replication/promote turns it into a writable primary at a bumped
// epoch, seeding a fresh WAL and snapshots in -data-dir, and a restarted
// old primary is fenced off by the epoch handshake (docs/replication.md).
// -replication-heartbeat-timeout surfaces primary_unreachable when the
// stream goes silent, and -auto-promote (off by default) promotes a fully
// caught-up standby automatically once that timeout expires.
//
// To generate load or measure throughput and latency against a running
// server, use the benchmark client in bench/ (bash bench/run.sh, see
// bench/README.md).
//
// -max-inflight-batches bounds how many batch requests the server serves
// concurrently; excess load is shed with 429 + Retry-After instead of
// queueing without bound, which keeps tail latency flat under overload.
//
// -pprof serves net/http/pprof on a loopback-only listener for hot-path
// diagnosis; the server drains in-flight requests on SIGINT/SIGTERM
// before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	addr := flag.String("addr", ":8077", "listen address")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second,
		"how long to wait for in-flight requests on shutdown")
	dataDir := flag.String("data-dir", "",
		"directory for durable state (snapshots + write-ahead log); empty disables persistence")
	snapshotInterval := flag.Duration("snapshot-interval", time.Minute,
		"how often to snapshot all filters in the background (requires -data-dir; 0 disables)")
	partitioning := flag.String("partitioning", string(server.PartitionHash),
		`default partitioning for creates that omit "partitioning": hash (uniform load) or range (range queries probe one shard)`)
	walSync := flag.String("wal-sync", string(wal.SyncInterval),
		"WAL fsync policy: always (no acked write is ever lost), interval (fsync every -wal-sync-interval), none (OS decides)")
	walSyncInterval := flag.Duration("wal-sync-interval", wal.DefaultSyncInterval,
		"fsync period under -wal-sync=interval; an unclean crash loses at most this much acked data")
	walSegmentBytes := flag.Int64("wal-segment-bytes", wal.DefaultSegmentBytes,
		"rotate WAL segments at this size; old segments are truncated once snapshots cover them")
	authToken := flag.String("auth-token", "",
		"bearer token required on mutating endpoints (create/insert/snapshot/delete) and the replication stream; empty leaves them open; $BLOOMRFD_AUTH_TOKEN is used when the flag is unset; with -follow, also the credential presented to the primary")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof on this loopback-only address (e.g. 127.0.0.1:6060) for hot-path diagnosis; empty disables")
	skewThreshold := flag.Float64("skew-alert-threshold", 2.0,
		"raise bloomrfd_filter_skew_alert and log a warning when a range-partitioned filter's key_skew exceeds this (0 disables)")
	autoSplitThreshold := flag.Float64("auto-split-skew-threshold", 0,
		"act on skew instead of just alerting: split a range-partitioned filter's hottest span whenever its key_skew exceeds this after an insert (0 disables)")
	maxInflight := flag.Int("max-inflight-batches", 0,
		"admission control: bound concurrently served batch requests (insert/query/query-range); beyond it the server sheds load with 429 + Retry-After instead of queueing; 0 disables")
	logFormat := flag.String("log-format", "text",
		"process log rendering: text (human-readable key=value) or json (one object per line, for log shippers)")
	slowReqThreshold := flag.Duration("slow-request-threshold", 100*time.Millisecond,
		"emit one structured slow-request log line (full per-phase time breakdown, rate-limited to 1/s per filter) for any request slower than this; 0 disables")
	follow := flag.String("follow", "",
		"run as a read-only warm standby of the bloomrfd primary at this URL (e.g. http://primary:8077); add -data-dir to arm POST /v1/replication/promote")
	hbTimeout := flag.Duration("replication-heartbeat-timeout", 0,
		"with -follow: report primary_unreachable in /v1/replication/status and /metrics when no stream frame has arrived within this window (0 disables); also the detection window for -auto-promote")
	autoPromote := flag.Bool("auto-promote", false,
		"with -follow, -data-dir and -replication-heartbeat-timeout: promote this standby to a writable primary automatically once the primary has been unreachable past the timeout and the standby is fully caught up (never promotes over known lag)")
	stepDown := flag.Bool("step-down-on-higher-epoch", true,
		"with -follow: when the primary announces a higher promotion epoch, discard local stream state and re-bootstrap from the new primary; =false exits the stream loop with a terminal error instead")
	flag.Parse()

	defaultPart := server.Partitioning(*partitioning)
	if !defaultPart.Valid() {
		log.Fatalf("bloomrfd: -partitioning %q must be %q or %q",
			*partitioning, server.PartitionHash, server.PartitionRange)
	}
	syncPolicy := wal.SyncPolicy(*walSync)
	if !syncPolicy.Valid() {
		log.Fatalf("bloomrfd: -wal-sync %q must be %q, %q or %q",
			*walSync, wal.SyncAlways, wal.SyncInterval, wal.SyncNone)
	}
	if err := server.CheckHeartbeatTimeout(*hbTimeout); err != nil {
		log.Fatalf("bloomrfd: -replication-heartbeat-timeout: %v", err)
	}
	token := *authToken
	if token == "" {
		token = os.Getenv("BLOOMRFD_AUTH_TOKEN")
	}

	// One leveled structured logger owns every line — main's operational
	// messages, the server package's Logf hooks, snapshot-loop/follower
	// diagnostics, slow-request JSON lines.
	logger, err := newAppLogger(*logFormat)
	if err != nil {
		log.Fatalf("bloomrfd: %v", err)
	}

	if *pprofAddr != "" {
		startPprof(*pprofAddr)
	}

	cfg := server.Config{
		DefaultPartitioning:    defaultPart,
		AuthToken:              token,
		SkewAlertThreshold:     *skewThreshold,
		AutoSplitSkewThreshold: *autoSplitThreshold,
		MaxInflightBatches:     *maxInflight,
		SlowRequestThreshold:   *slowReqThreshold,
		SnapshotInterval:       *snapshotInterval,
		Logf:                   logger.logf,
	}
	reg := server.NewRegistry()
	var (
		store   *server.Store
		walOpts = wal.Options{
			Dir:          filepath.Join(*dataDir, "wal"),
			Policy:       syncPolicy,
			SyncInterval: *walSyncInterval,
			SegmentBytes: *walSegmentBytes,
		}
		follower *server.Follower
	)
	if *dataDir != "" {
		if store, err = server.OpenStore(filepath.Join(*dataDir, "snapshots")); err != nil {
			logger.fatalf("bloomrfd: %v", err)
		}
	}

	switch {
	case *follow != "":
		// Warm standby: the registry's state is owned by the primary's
		// stream. A -data-dir here is NOT recovered from — it is the
		// promotion target: the store and WAL options are held idle until
		// POST /v1/replication/promote seeds them at the bumped epoch.
		if *autoPromote && *dataDir == "" {
			logger.fatalf("bloomrfd: -auto-promote requires -data-dir (the promotion target) alongside -follow")
		}
		if *autoPromote && *hbTimeout <= 0 {
			logger.fatalf("bloomrfd: -auto-promote requires -replication-heartbeat-timeout > 0 (the detection window)")
		}
		follower, err = server.NewFollower(*follow, reg, logger.logf)
		if err != nil {
			logger.fatalf("bloomrfd: %v", err)
		}
		// The primary's stream is token-gated whenever the primary runs
		// with -auth-token; present the same credential.
		follower.WithAuthToken(token).WithHeartbeatTimeout(*hbTimeout).WithStepDown(*stepDown)
		cfg.ReadOnly = true
		cfg.Replication = follower.Status
		cfg.ReplicationLag = follower.LagSnapshot
		cfg.HeartbeatTimeout = *hbTimeout
		if store != nil {
			// A fenced-then-restarted old primary must announce the epoch
			// it once served at, or a stale primary could bootstrap it.
			recovered, err := server.RecoverEpoch(store, walOpts)
			if err != nil {
				logger.fatalf("bloomrfd: recovering promotion epoch: %v", err)
			}
			follower.WithEpoch(recovered)
			cfg.Promotion = &server.PromotionConfig{WALOptions: walOpts, Follower: follower}
			cfg.AutoPromote = *autoPromote
		}

	case store != nil:
		wlog, err := wal.Open(walOpts)
		if err != nil {
			logger.fatalf("bloomrfd: opening WAL: %v", err)
		}
		stats, err := server.Recover(store, wlog, reg, logger.logf)
		if err != nil {
			logger.fatalf("bloomrfd: recovery: %v", err)
		}
		// A primary promoted in a previous life resumes at its recovered
		// epoch; 0 (no failover yet) serves at epoch 1.
		cfg.Epoch = stats.Epoch
		cfg.WAL = wlog
	}

	api := server.NewConfiguredAPI(reg, store, cfg)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if follower != nil {
		go func() {
			follower.Run(ctx)
			// A terminal stream error (e.g. the primary reports a higher
			// epoch and -step-down-on-higher-epoch=false) means this node
			// can never catch up again; shut down rather than serve
			// silently stale reads forever.
			if err := follower.TerminalErr(); err != nil {
				logger.logf("bloomrfd: follower: %v; shutting down", err)
				stop()
			}
		}()
		logger.logf("bloomrfd: following %s as a read-only standby", *follow)
	}

	errCh := make(chan error, 1)
	go func() {
		logger.logf("bloomrfd listening on %s", *addr)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		logger.fatalf("bloomrfd: %v", err)
	case <-ctx.Done():
	}

	logger.logf("bloomrfd: shutting down (draining for up to %s)", *shutdownTimeout)
	drainServer(srv, *shutdownTimeout, logger.logf)
	// The API owns the durable primary, booted or promoted: Close stops its
	// background work, takes the final snapshot and closes the WAL.
	api.Close()
	logger.logf("bloomrfd: bye")
}

// drainServer shuts srv down gracefully, waiting up to timeout for
// in-flight requests. A drain that times out used to be swallowed
// silently, leaving the operator to wonder why clients saw reset
// connections; now it is logged explicitly and the listener is force-closed
// so the shutdown sequence (final snapshot, WAL close) still runs promptly.
func drainServer(srv *http.Server, timeout time.Duration, logf func(string, ...any)) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := srv.Shutdown(ctx)
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		logf("bloomrfd: shutdown: drain timed out after %s with requests still in flight; closing them forcibly (final snapshot still runs)", timeout)
		_ = srv.Close()
	default:
		logf("bloomrfd: shutdown: %v", err)
	}
}

// startPprof serves the net/http/pprof handlers on addr, refusing anything
// but a loopback address: the profiler exposes heap contents and stack
// traces, so it must never ride the service's public listener or any
// routable interface. The handlers are mounted on a private mux (not
// http.DefaultServeMux) so nothing else can accidentally join them.
func startPprof(addr string) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		log.Fatalf("bloomrfd: -pprof %q must be host:port: %v", addr, err)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		log.Fatalf("bloomrfd: -pprof %q must bind a loopback address (127.0.0.1, ::1 or localhost)", addr)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("bloomrfd: -pprof listen: %v", err)
	}
	log.Printf("bloomrfd: pprof on http://%s/debug/pprof/", ln.Addr())
	go func() {
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		if err := srv.Serve(ln); err != nil {
			log.Printf("bloomrfd: pprof server: %v", err)
		}
	}()
}
