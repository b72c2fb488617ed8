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
// With -probe-file set, bloomrfd is a load-generation client instead of a
// server: it reads keys (or "lo hi" ranges) from the file and fires them
// at -probe-url in batches, over the JSON or the binary wire codec, and
// reports end-to-end throughput (see probe.go). Latency is measured by
// the paced open-loop client in bench/ instead (bench/README.md).
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
		"bearer token required on mutating endpoints (create/insert/snapshot/delete) and the replication stream; empty leaves them open; $BLOOMRFD_AUTH_TOKEN is used when the flag is unset; with -follow or -probe-file, also the credential presented to the target server")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof on this loopback-only address (e.g. 127.0.0.1:6060) for hot-path diagnosis; empty disables")
	skewThreshold := flag.Float64("skew-alert-threshold", 2.0,
		"raise bloomrfd_filter_skew_alert and log a warning when a range-partitioned filter's key_skew exceeds this (0 disables)")
	autoSplitThreshold := flag.Float64("auto-split-skew-threshold", 0,
		"act on skew instead of just alerting: split a range-partitioned filter's hottest span whenever its key_skew exceeds this after an insert (0 disables)")
	maxInflight := flag.Int("max-inflight-batches", 0,
		"admission control: bound concurrently served batch requests (insert/query/query-range); beyond it the server sheds load with 429 + Retry-After instead of queueing; 0 disables")
	logFormat := flag.String("log-format", "text",
		"serving-mode log rendering: text (human-readable key=value) or json (one object per line, for log shippers)")
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
	probeFile := flag.String("probe-file", "",
		"run as a load-generation client instead of a server: read keys (one per line) or ranges (\"lo hi\" per line) from this file and fire them at -probe-url in batches")
	probeURL := flag.String("probe-url", "http://127.0.0.1:8077",
		"target server for -probe-file")
	probeFilter := flag.String("probe-filter", "probe",
		"filter name -probe-file operates on")
	probeOp := flag.String("probe-op", "query",
		"operation -probe-file performs: insert, query, or query-range")
	probeCodec := flag.String("probe-codec", "binary",
		"wire codec for -probe-file: binary (application/x-bloomrf-batch) or json")
	probeBatch := flag.Int("probe-batch", 8192,
		"items per request for -probe-file")
	probeRounds := flag.Int("probe-rounds", 1,
		"how many passes -probe-file makes over the file")
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

	if *probeFile != "" {
		// Client mode: generate load against a running bloomrfd, then exit.
		if err := runProbe(probeOptions{
			File: *probeFile, URL: *probeURL, Filter: *probeFilter,
			Op: *probeOp, Codec: *probeCodec, Batch: *probeBatch,
			Rounds: *probeRounds, AuthToken: token,
		}, os.Stdout); err != nil {
			log.Fatalf("bloomrfd: probe: %v", err)
		}
		return
	}

	// Serving mode from here on: one leveled structured logger owns every
	// line — main's operational messages, the server package's Logf hooks,
	// snapshotter/follower diagnostics, slow-request JSON lines.
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
		Logf:                   logger.logf,
	}
	reg := server.NewRegistry()
	var (
		store       *server.Store
		wlog        *wal.Log
		snapshotter *server.Snapshotter
		follower    *server.Follower
	)

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
		var err error
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
		if *dataDir != "" {
			store, err = server.OpenStore(filepath.Join(*dataDir, "snapshots"))
			if err != nil {
				logger.fatalf("bloomrfd: %v", err)
			}
			walOpts := wal.Options{
				Dir:          filepath.Join(*dataDir, "wal"),
				Policy:       syncPolicy,
				SyncInterval: *walSyncInterval,
				SegmentBytes: *walSegmentBytes,
			}
			// A fenced-then-restarted old primary must announce the epoch
			// it once served at, or a stale primary could bootstrap it.
			recovered, err := server.RecoverEpoch(store, walOpts)
			if err != nil {
				logger.fatalf("bloomrfd: recovering promotion epoch: %v", err)
			}
			follower.WithEpoch(recovered)
			cfg.Promotion = &server.PromotionConfig{
				Store:            store,
				WALOptions:       walOpts,
				SnapshotInterval: *snapshotInterval,
				Follower:         follower,
				RecoveredEpoch:   recovered,
			}
			cfg.AutoPromote = *autoPromote
		}

	case *dataDir != "":
		var err error
		store, err = server.OpenStore(filepath.Join(*dataDir, "snapshots"))
		if err != nil {
			logger.fatalf("bloomrfd: %v", err)
		}
		wlog, err = wal.Open(wal.Options{
			Dir:          filepath.Join(*dataDir, "wal"),
			Policy:       syncPolicy,
			SyncInterval: *walSyncInterval,
			SegmentBytes: *walSegmentBytes,
		})
		if err != nil {
			logger.fatalf("bloomrfd: opening WAL: %v", err)
		}
		store.SetWALSource(wlog)
		stats, err := server.Recover(store, wlog, reg, logger.logf)
		if err != nil {
			logger.fatalf("bloomrfd: recovery: %v", err)
		}
		// A primary that predates any failover serves at epoch 1; one that
		// was promoted in a previous life resumes at its recovered epoch.
		epoch := stats.Epoch
		if epoch == 0 {
			epoch = 1
		}
		cfg.Epoch = epoch
		store.SetEpochSource(func() uint64 { return epoch })
		cfg.WAL = wlog
		if *snapshotInterval > 0 {
			snapshotter = server.NewSnapshotter(reg, store, *snapshotInterval).WithWAL(wlog).WithLogf(logger.logf)
			snapshotter.Start()
		}
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
	// api.Close tears down whatever a promotion built (snapshotter, final
	// snapshot, promoted WAL); a never-promoted server only closes its
	// signal channel. The boot-time snapshotter/store/WAL below belong to
	// main and are torn down here.
	api.Close()
	if snapshotter != nil {
		snapshotter.Stop()
	}
	if store != nil && wlog != nil {
		ok, failed := server.SnapshotAll(reg, store, logger.logf)
		logger.logf("bloomrfd: final snapshot: %d ok, %d failed", ok, failed)
		server.TruncateWAL(reg, wlog, logger.logf)
	}
	if wlog != nil {
		if err := wlog.Close(); err != nil {
			logger.logf("bloomrfd: closing WAL: %v", err)
		}
	}
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
