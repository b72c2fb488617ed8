package server

import (
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wal"
)

// HTTP API for the filter registry. Endpoint and schema reference:
// docs/server.md. The insert, query and query-range endpoints are served
// by one handler, serveOp, with the body format as a parameter: the
// router picks a batchCodec (codec.go) from the Content-Type — JSON by
// default, the binary wire codec (binary.go) for
// application/x-bloomrf-batch, the high-throughput path specified in
// docs/performance.md. Either way the request runs the same gates,
// batch execution, WAL logging and trace, so the codecs differ only in
// how bytes become keys and verdicts become bytes.

// MaxBatch bounds the number of keys or ranges in one request, as flood
// protection; larger workloads should split into multiple requests.
const MaxBatch = 1 << 20

// maxBodyBytes bounds request bodies (a full MaxBatch of 20-digit keys).
const maxBodyBytes = 64 << 20

// U64 is a uint64 that unmarshals from a JSON number or a decimal string.
// The string form exists for clients (JavaScript, jq) whose native numbers
// lose precision above 2^53; responses always use JSON numbers.
type U64 uint64

// UnmarshalJSON accepts 4711 or "4711".
func (u *U64) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return fmt.Errorf("key %q is not an unsigned 64-bit integer", s)
	}
	*u = U64(v)
	return nil
}

// Config carries optional API behaviour; the zero value is valid.
type Config struct {
	// DefaultPartitioning applies to create requests that omit the
	// "partitioning" field. Empty means PartitionHash. bloomrfd wires its
	// -partitioning flag here.
	DefaultPartitioning Partitioning

	// AuthToken, when non-empty, gates every mutating endpoint (create,
	// insert, snapshot, delete) behind "Authorization: Bearer <token>";
	// requests without the exact token get 401. Query endpoints stay open.
	AuthToken string

	// ReadOnly rejects every mutating endpoint with 403. The replication
	// follower serves with it set: its state is owned by the primary's
	// stream, and a local write would silently diverge the standby.
	ReadOnly bool

	// WAL, when non-nil, is the write-ahead log mutations are committed
	// to: every mutating handler appends its effect after applying it and
	// before acknowledging (see durability.go for why in that order). It
	// also enables GET /v1/replication/stream. The API owns it from then
	// on: Close takes a final snapshot and closes it.
	WAL *wal.Log

	// SnapshotInterval, when > 0, snapshots every filter at this period
	// while a WAL is attached, from boot (WAL) or from promotion
	// (Promotion). bloomrfd wires its -snapshot-interval flag here.
	SnapshotInterval time.Duration

	// Replication, when non-nil, reports the follower's stream state for
	// /metrics and GET /v1/replication/status.
	Replication func() ReplicationStatus

	// ReplicationLag, when non-nil, snapshots the follower's per-record
	// lag histogram (replication.go) for the
	// bloomrfd_replication_record_lag_bytes family on /metrics. Separate
	// from Replication because the gauge-style status and the histogram
	// have different costs and consumers.
	ReplicationLag func() obs.HistSnapshot

	// SlowRequestThreshold arms the slow-request log (phases.go): a
	// served insert/query/query-range request whose total time reaches
	// the threshold emits one structured JSON line with its per-phase
	// breakdown, rate-limited to 1/s per filter. <= 0 disables. bloomrfd
	// wires its -slow-request-threshold flag here (default 100ms).
	SlowRequestThreshold time.Duration

	// MaxInflightBatches bounds how many insert/query/query-range requests
	// (either codec) may execute concurrently; excess load is shed with
	// 429 + Retry-After instead of queueing unboundedly (admission.go).
	// <= 0 disables the bound. bloomrfd wires its -max-inflight-batches
	// flag here.
	MaxInflightBatches int

	// SkewAlertThreshold arms the partition-skew alert: a range-partitioned
	// filter whose key_skew (max/mean of per-shard resident keys) exceeds
	// it gets bloomrfd_filter_skew_alert = 1 and a structured warning on
	// the transition. <= 0 disables. Hash-partitioned filters never alert
	// (their placement is uniform by construction; skew there would be a
	// routing bug, visible in the per-shard gauges either way).
	SkewAlertThreshold float64

	// Epoch is the promotion epoch this server boots at. 0 means "derive":
	// 1 for a WAL-backed primary, the stream's epoch for a follower.
	// bloomrfd sets it from WAL/manifest recovery (ReplayStats.Epoch).
	Epoch uint64

	// Promotion, when non-nil, gives a follower what it needs to become a
	// primary on POST /v1/replication/promote: WAL options for the fresh
	// log it seeds at epoch n+1 (failover.go). The promoted primary
	// snapshots into the API's store, which must be non-nil.
	Promotion *PromotionConfig

	// HeartbeatTimeout arms follower-side failure detection: when the
	// stream has delivered no frame (heartbeats included) for this long,
	// /v1/replication/status reports primary_unreachable and the
	// auto-promotion loop (if armed) may act. <= 0 disables.
	HeartbeatTimeout time.Duration

	// AutoPromote lets a follower promote itself when the primary has been
	// unreachable for HeartbeatTimeout and the follower is caught up. Off
	// by default: with only two nodes there is no quorum, so automatic
	// promotion can split-brain a partitioned pair (docs/replication.md).
	AutoPromote bool

	// AutoSplitSkewThreshold arms automatic hot-span splitting: when a
	// mutation-path skew evaluation finds a range-partitioned filter's
	// key_skew above it, the server splits the filter's hottest span —
	// repeatedly, up to maxAutoSplitsPerTrigger per episode — until the
	// skew drops back under (split.go). <= 0 disables. bloomrfd wires its
	// -auto-split-skew-threshold flag here. Independent of
	// SkewAlertThreshold: alerting observes, this acts.
	AutoSplitSkewThreshold float64

	// Logf receives warnings (skew alerts, replication stream errors).
	// nil means log.Printf.
	Logf func(format string, args ...any)
}

// API serves the filter registry over HTTP.
type API struct {
	reg    *Registry
	store  *Store // nil when persistence is disabled
	cfg    Config
	start  time.Time
	mux    *http.ServeMux
	adm    *admission  // nil when MaxInflightBatches is unset
	phases *phaseTable // global per-(phase, op, codec) histograms (phases.go)

	skewMu      sync.Mutex
	skewAlerted map[string]bool  // filters currently above the skew threshold
	skewChecked map[string]int64 // last mutation-path skew evaluation, unix nanos

	// Runtime role state (failover.go). The WAL pointer is atomic because
	// promotion attaches a fresh log while requests may be in flight;
	// cfg.WAL stays as the boot-time value for tests and the stream setup.
	wlog      atomic.Pointer[wal.Log]
	following atomic.Bool // consuming a primary's stream (clears on promote)
	readOnly  atomic.Bool // mutations 403 (follower mode; clears on promote)
	fenced    atomic.Bool // superseded by a higher epoch; mutations/stream 409
	walFailed atomic.Bool // WAL can't append; degraded read-only, mutations 503
	probeAt   atomic.Int64
	epoch     atomic.Uint64

	fencingRejections atomic.Uint64
	promotions        atomic.Uint64

	// Lifecycle (lifecycle.go). promoteMu serializes promotions against
	// each other and against Close; lifeMu guards closed against spawn, and
	// bg counts the goroutines Close waits for.
	promoteMu sync.Mutex
	lifeMu    sync.Mutex
	closed    chan struct{} // closed when Close begins
	closeOnce sync.Once
	bg        sync.WaitGroup
}

// NewAPI builds the HTTP API around a registry, without persistence: the
// snapshot endpoint answers 400 and restarts lose all filters.
func NewAPI(reg *Registry) *API { return NewConfiguredAPI(reg, nil, Config{}) }

// NewConfiguredAPI builds the HTTP API. A non-nil store mirrors creates and
// deletes to disk and serves the snapshot endpoint; cfg.WAL makes the API
// a durable primary (lifecycle.go).
func NewConfiguredAPI(reg *Registry, store *Store, cfg Config) *API {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	a := &API{
		reg: reg, store: store, cfg: cfg, start: time.Now(),
		mux: http.NewServeMux(), adm: newAdmission(cfg.MaxInflightBatches),
		phases:      &phaseTable{},
		skewAlerted: make(map[string]bool), skewChecked: make(map[string]int64),
		closed: make(chan struct{}),
	}
	a.following.Store(cfg.Replication != nil)
	a.readOnly.Store(cfg.ReadOnly)
	a.epoch.Store(cfg.Epoch)
	if cfg.WAL != nil {
		a.attachWAL(cfg.WAL)
	}
	if cfg.AutoPromote && cfg.Promotion != nil && cfg.Replication != nil && cfg.HeartbeatTimeout > 0 {
		a.spawn(a.autoPromoteLoop)
	}
	a.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	a.mux.HandleFunc("GET /metrics", a.handleMetrics)
	a.mux.HandleFunc("POST /v1/filters", a.handleCreate)
	a.mux.HandleFunc("GET /v1/filters", a.handleList)
	a.mux.HandleFunc("GET /v1/filters/{name}", a.handleStats)
	a.mux.HandleFunc("DELETE /v1/filters/{name}", a.handleDelete)
	// The op patterns serve only what serveOpFast declines, such as a name
	// with an escaped slash (a%2Fb).
	for op := latOp(0); op < numLatOps; op++ {
		a.mux.HandleFunc("POST /v1/filters/{name}/"+latOpNames[op], func(w http.ResponseWriter, r *http.Request) {
			a.serveOp(w, r, op, codecFor(r), r.PathValue("name"))
		})
	}
	a.mux.HandleFunc("POST /v1/filters/{name}/snapshot", a.handleSnapshot)
	a.mux.HandleFunc("POST /v1/filters/{name}/split", a.handleSplit)
	a.mux.HandleFunc("GET /v1/replication/stream", a.handleReplicationStream)
	a.mux.HandleFunc("GET /v1/replication/status", a.handleReplicationStatus)
	a.mux.HandleFunc("POST /v1/replication/promote", a.handlePromote)
	return a
}

// wal returns the log mutations commit to right now: the boot-time WAL for
// a primary, nil for a follower, the freshly seeded log after promotion.
func (a *API) wal() *wal.Log { return a.wlog.Load() }

// ServeHTTP implements http.Handler. Batch op requests of either codec
// take an allocation-free route around the mux (serveOpFast); everything
// else, including op requests the fast route declines, goes through the
// mux.
func (a *API) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if a.serveOpFast(w, r) {
		return
	}
	a.mux.ServeHTTP(w, r)
}

// serveOpFast routes an insert, query or query-range request without the
// ServeMux, reporting whether it claimed the request. The generic router
// allocates its wildcard-match slice on every request it routes, which
// would be the one remaining per-request allocation on the binary hot
// path; substring-slicing the URL path costs nothing. It claims only paths
// the mux would route to the same op with the same name: escaped paths
// (RawPath set, e.g. a%2Fb), names containing a slash and the dot names
// the mux cleans away all fall through to it.
func (a *API) serveOpFast(w http.ResponseWriter, r *http.Request) bool {
	const prefix = "/v1/filters/"
	path := r.URL.Path
	if r.Method != http.MethodPost || r.URL.RawPath != "" || !strings.HasPrefix(path, prefix) {
		return false
	}
	rest := path[len(prefix):]
	i := strings.LastIndexByte(rest, '/')
	if i <= 0 {
		return false
	}
	name, opName := rest[:i], rest[i+1:]
	if strings.IndexByte(name, '/') >= 0 || name == "." || name == ".." {
		return false
	}
	for op := latOp(0); op < numLatOps; op++ {
		if opName == latOpNames[op] {
			a.serveOp(w, r, op, codecFor(r), name)
			return true
		}
	}
	return false
}

// authorized reports whether the request carries the configured bearer
// token (trivially true when none is configured). The comparison is
// constant-time so the token cannot be guessed byte by byte.
func (a *API) authorized(r *http.Request) bool {
	if a.cfg.AuthToken == "" {
		return true
	}
	auth := r.Header.Get("Authorization")
	token, ok := strings.CutPrefix(auth, "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(token), []byte(a.cfg.AuthToken)) == 1
}

// denyUnauthorized writes the 401 challenge shared by every token-gated
// endpoint.
func denyUnauthorized(w http.ResponseWriter, what string) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="bloomrfd"`)
	writeErr(w, http.StatusUnauthorized, "%s requires a valid bearer token", what)
}

// epochHeader is the optional request header carrying the client's view of
// the primary's promotion epoch. A router or failover-aware client sets it
// so a demoted primary rejects the write instead of silently diverging.
const epochHeader = "X-Bloomrfd-Epoch"

// allowMutation gates the mutating endpoints: a fenced ex-primary rejects
// with 409, a read-only follower with 403, unauthorized requests with 401,
// epoch-mismatched requests with 409, and a primary whose WAL cannot append
// sheds with 503 + Retry-After. The epoch check runs after auth on purpose:
// an unauthenticated client must not be able to fence a primary.
func (a *API) allowMutation(w http.ResponseWriter, r *http.Request) bool {
	if a.fenced.Load() {
		a.fencingRejections.Add(1)
		writeErr(w, http.StatusConflict,
			"fencing: this server was demoted (a primary with a higher epoch exists); write to the new primary")
		return false
	}
	if a.readOnly.Load() {
		writeErr(w, http.StatusForbidden, "this server is a read-only replication follower; write to the primary")
		return false
	}
	if !a.authorized(r) {
		denyUnauthorized(w, "mutating endpoints")
		return false
	}
	if s := r.Header.Get(epochHeader); s != "" {
		e, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "invalid %s header %q: %v", epochHeader, s, err)
			return false
		}
		mine := a.epochValue()
		switch {
		case e > mine:
			a.fence(fmt.Sprintf("mutation carried epoch %d, ours is %d", e, mine))
			a.fencingRejections.Add(1)
			writeErr(w, http.StatusConflict,
				"fencing: request epoch %d exceeds this server's epoch %d; a newer primary exists", e, mine)
			return false
		case e < mine:
			a.fencingRejections.Add(1)
			writeErr(w, http.StatusConflict,
				"fencing: request epoch %d is stale (this server is at epoch %d); refresh the primary address", e, mine)
			return false
		}
	}
	if a.walFailed.Load() && a.degradedReject() {
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusServiceUnavailable,
			"WAL cannot append (disk failure?); serving reads only until appends succeed again")
		return false
	}
	return true
}

// logWAL is appendWAL for a handler: an encoding error answers 500, an
// append failure 503 + Retry-After. The mutation is already applied
// (apply-before-append, durability.go); a false return means the client
// must not treat it as durable — safe to retry, since replay is idempotent.
//
// An armed tr has PhaseWALAppend open; logWAL closes it once the append is
// acknowledged and moves the fsync share the WAL writer measured to
// PhaseWALFsync. Untraced callers pass a disarmed trace.
func (a *API) logWAL(w http.ResponseWriter, rec wal.Record, err error, tr *obs.Trace) bool {
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encoding WAL record: %v", err)
		return false
	}
	fsyncNs, err := a.appendWAL(rec)
	// Close the open wal-append phase before shifting: Shift only moves
	// already-attributed time.
	tr.Leave()
	tr.Shift(obs.PhaseWALAppend, obs.PhaseWALFsync, fsyncNs)
	if err != nil {
		writeWALAppendFailed(w, err)
		return false
	}
	return true
}

// errWALAppend marks a mutation whose WAL record could not be appended.
var errWALAppend = errors.New("WAL append failed; the mutation is applied in memory but not durable")

// appendWAL appends every mutation's record, a split's included, to the
// current WAL, if any, and returns the append's fsync share. A failure
// latches the degraded read-only mode (failover.go); a success clears it.
func (a *API) appendWAL(rec wal.Record) (fsyncNs int64, err error) {
	l := a.wal()
	if l == nil {
		return 0, nil
	}
	if _, fsyncNs, err = l.AppendTraced(rec); err != nil {
		a.noteWALAppendError(err)
		return fsyncNs, fmt.Errorf("%w: %w", errWALAppend, err)
	}
	a.noteWALAppendOK()
	return fsyncNs, nil
}

// writeWALAppendFailed answers a mutation whose record appendWAL refused:
// 503 + Retry-After, since replay is idempotent and a retry is safe.
func writeWALAppendFailed(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, "%v; server is read-only until appends recover", err)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decode reads one JSON value from a request body into v. It is the one
// place the body rules live: unknown fields are refused, and so is
// anything but whitespace after the value, which would otherwise be
// dropped unread. An oversized body is a 413, not a generic 400: the
// client's JSON may be perfectly well-formed, and "split the batch" is a
// different fix than "fix the syntax".
func decode(w http.ResponseWriter, body io.ReadCloser, v any) bool {
	return decodeBody(w, body, v, false)
}

// decodeOptional is decode for endpoints whose body may be empty, which
// leaves v untouched.
func decodeOptional(w http.ResponseWriter, body io.ReadCloser, v any) bool {
	return decodeBody(w, body, v, true)
}

// errTrailingData refuses a body with more than one JSON value.
var errTrailingData = errors.New("unexpected data after the JSON value")

func decodeBody(w http.ResponseWriter, body io.ReadCloser, v any, emptyOK bool) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	switch {
	case err == io.EOF && emptyOK:
		return true
	case err == nil:
		err = expectEnd(dec)
	}
	if err == nil {
		return true
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge,
			"request body exceeds the %d MiB limit; split the batch into smaller requests", maxBodyBytes>>20)
		return false
	}
	writeErr(w, http.StatusBadRequest, "invalid request body: %v", err)
	return false
}

// expectEnd reads past the value dec has decoded and fails unless only
// whitespace follows it. A read error, an oversized body among them,
// passes through.
func expectEnd(dec *json.Decoder) error {
	_, err := dec.Token()
	var syntax *json.SyntaxError
	switch {
	case err == io.EOF:
		return nil
	case err == nil, err == io.ErrUnexpectedEOF, errors.As(err, &syntax):
		return errTrailingData
	}
	return err
}

// lookup resolves the {name} path segment to a filter or writes a 404.
func (a *API) lookup(w http.ResponseWriter, r *http.Request) (*ShardedFilter, bool) {
	name := r.PathValue("name")
	f, err := a.reg.Get(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, "filter %q not found", name)
		return nil, false
	}
	return f, true
}

type createReq struct {
	Name         string       `json:"name"`
	ExpectedKeys U64          `json:"expected_keys"`
	BitsPerKey   float64      `json:"bits_per_key"`
	MaxRange     float64      `json:"max_range"`
	Shards       int          `json:"shards"`
	Partitioning Partitioning `json:"partitioning"`
	// Backend picks the filter implementation: "bloomrf" (default),
	// "bloom", "rosetta" or "surf". Unknown values are a 400.
	Backend string `json:"backend"`
}

func (a *API) handleCreate(w http.ResponseWriter, r *http.Request) {
	if !a.allowMutation(w, r) {
		return
	}
	var req createReq
	if !decode(w, r.Body, &req) {
		return
	}
	if req.Partitioning == "" {
		req.Partitioning = a.cfg.DefaultPartitioning
	}
	f, err := a.reg.Create(req.Name, FilterOptions{
		ExpectedKeys: uint64(req.ExpectedKeys),
		BitsPerKey:   req.BitsPerKey,
		MaxRange:     req.MaxRange,
		Shards:       req.Shards,
		Partitioning: req.Partitioning,
		Backend:      req.Backend,
	})
	switch {
	case errors.Is(err, ErrExists):
		writeErr(w, http.StatusConflict, "filter %q already exists", req.Name)
		return
	case err != nil:
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Log the create with the validated, defaulted options so replay
	// rebuilds an identically-routed filter. Roll the registration back if
	// the log rejects it: an unlogged filter would vanish on restart.
	rec, encErr := encodeCreate(req.Name, f.Options())
	if !a.logWAL(w, rec, encErr, &obs.Trace{}) {
		_ = a.reg.Delete(req.Name)
		return
	}
	if a.store != nil {
		// Persist the (empty) filter immediately so its existence survives
		// a restart even before the first periodic or explicit snapshot.
		if _, err := a.snapshot(req.Name, f); err != nil && !errors.Is(err, ErrSuperseded) {
			_ = a.reg.Delete(req.Name)
			writeErr(w, http.StatusInternalServerError, "persisting new filter: %v", err)
			return
		}
	}
	st := f.Stats()
	writeJSON(w, http.StatusCreated, map[string]any{"name": req.Name, "stats": st})
}

// handleSnapshot persists one filter on demand, returning the committed
// manifest's summary.
func (a *API) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !a.allowMutation(w, r) {
		return
	}
	if a.store == nil {
		writeErr(w, http.StatusBadRequest, "persistence is disabled (start bloomrfd with -data-dir)")
		return
	}
	name := r.PathValue("name")
	f, err := a.reg.Get(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, "filter %q not found", name)
		return
	}
	man, err := a.snapshot(name, f)
	if errors.Is(err, ErrSuperseded) {
		writeErr(w, http.StatusNotFound, "filter %q deleted during snapshot", name)
		return
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "snapshot failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":          name,
		"seq":           man.Seq,
		"bytes":         man.totalBytes(),
		"shards":        len(man.Shards),
		"inserted_keys": man.InsertedKeys,
	})
}

func (a *API) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"filters": a.reg.Names()})
}

func (a *API) handleStats(w http.ResponseWriter, r *http.Request) {
	f, ok := a.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, f.Stats())
}

func (a *API) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !a.allowMutation(w, r) {
		return
	}
	name := r.PathValue("name")
	regErr := a.reg.Delete(name)
	// Journal the delete BEFORE removing snapshots: once the record is
	// durable, a crash at any later point replays the delete over whatever
	// snapshots survive, so the filter can never be resurrected with a
	// partial key set (snapshots gone but old create/insert records
	// retained). A crash before the append resurrects the filter whole —
	// the state a crash just before DELETE arrived would leave, and the
	// DELETE was never acknowledged.
	if regErr == nil {
		if !a.logWAL(w, wal.Record{Type: recDelete, Data: []byte(name)}, nil, &obs.Trace{}) {
			return
		}
	}
	if a.store != nil {
		// Drop the on-disk snapshots too. This runs even when the registry
		// entry is already gone, so a retried DELETE after a failed removal
		// still cleans up the orphaned snapshots instead of 404ing past
		// them (the delete record was already journaled on that first
		// attempt).
		if err := a.store.Remove(name); err != nil {
			writeErr(w, http.StatusInternalServerError, "removing snapshots failed (retry DELETE): %v", err)
			return
		}
	}
	a.resetSkewEpisode(name) // a recreated name starts a fresh alert episode
	if regErr != nil {
		writeErr(w, http.StatusNotFound, "filter %q not found", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// serveOp is the one handler behind the insert, query and query-range
// endpoints, for either codec. Gates run in a fixed order: the mutation
// gate (insert only) before the lookup, so an unauthenticated insert
// answers 401 whether or not the filter exists and cannot enumerate names;
// then the 404 lookup; then admission, before any body is read. The trace
// starts before admission and is recorded only once the response is
// written, so its total is the request's one latency measurement.
func (a *API) serveOp(w http.ResponseWriter, r *http.Request, op latOp, c batchCodec, name string) {
	if op == opInsert && !a.allowMutation(w, r) {
		return
	}
	f, err := a.reg.Get(name)
	if err != nil {
		writeErr(w, http.StatusNotFound, "filter %q not found", name)
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	sc.tr.Start()
	sc.tr.Enter(obs.PhaseAdmissionWait)
	if !a.admit(w) {
		return
	}
	defer a.adm.release()
	sc.tr.Enter(obs.PhaseDecode)
	single, ok := c.decode(w, r, op, sc)
	if !ok {
		return
	}
	switch op {
	case opInsert:
		// Apply first, append second (durability.go): concurrent inserts
		// group-commit into one WAL write, and a snapshot that captured the
		// log end P is guaranteed to contain every record below P. Without
		// a WAL there is nothing to encode, which keeps serving-only inserts
		// allocation-free; with one, the record is encoded into the pooled
		// scratch. The apply+append pair runs inside the filter's
		// mutation drain gate so a concurrent span split can prove every
		// straggler's record is in the log before it backfills (split.go
		// phase 5).
		f.beginApply()
		f.insertBatchWith(sc.keys, sc)
		if a.wal() != nil {
			sc.tr.Enter(obs.PhaseWALAppend)
			rec, encErr := encodeInsert(sc.rec, name, sc.keys)
			sc.rec = rec.Data
			if !a.logWAL(w, rec, encErr, &sc.tr) {
				f.endApply()
				return
			}
		}
		f.endApply()
		a.noteMutationSkew(name, f)
		sc.tr.Enter(obs.PhaseEncode)
		c.ack(w, len(sc.keys), sc)
	case opQuery:
		sc.out = grown(sc.out, len(sc.keys))
		f.mayContainBatchWith(sc.keys, sc.out, sc)
		sc.tr.Enter(obs.PhaseEncode)
		c.verdicts(w, sc.out, single, sc)
	case opQueryRange:
		sc.out = grown(sc.out, len(sc.ranges))
		f.mayContainRangeBatchWith(sc.ranges, sc.out, sc)
		sc.tr.Enter(obs.PhaseEncode)
		c.verdicts(w, sc.out, single, sc)
	}
	a.recordTrace(name, f, op, c.latCodec(), &sc.tr)
}

// splitReq is the optional body of POST /v1/filters/{name}/split; an empty
// body (or empty object) means "pick the shard and split key for me".
type splitReq struct {
	// Shard, when present, names the shard to split.
	Shard *int `json:"shard"`
	// Key, when present, is the split key: the left replacement keeps
	// [span start, key], the right takes the rest.
	Key *U64 `json:"key"`
}

// handleSplit divides one span of a range-partitioned filter in two, live
// (split.go). 409 when the filter cannot be split (hash partitioning,
// shard ceiling, single-key span), 400 for a shard/key the topology
// rejects.
func (a *API) handleSplit(w http.ResponseWriter, r *http.Request) {
	if !a.allowMutation(w, r) {
		return
	}
	f, ok := a.lookup(w, r)
	if !ok {
		return
	}
	opt := SplitAuto
	var req splitReq
	if !decodeOptional(w, r.Body, &req) {
		return
	}
	if req.Shard != nil {
		opt.Shard = *req.Shard
	}
	if req.Key != nil {
		opt.Key = uint64(*req.Key)
	}
	res, err := a.performSplit(r.PathValue("name"), f, opt)
	switch {
	case errors.Is(err, ErrNotSplittable):
		writeErr(w, http.StatusConflict, "%v", err)
	case errors.Is(err, errSplitArg):
		writeErr(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, errWALAppend):
		writeWALAppendFailed(w, err)
	case err != nil:
		writeErr(w, http.StatusInternalServerError, "%v", err)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// performSplit runs a split and journals it, in the standard apply-before-
// append order, then resets the filter's skew episode so the alert state
// is re-evaluated against the new topology. Shared by the split endpoint
// and the auto-split policy (metrics.go).
func (a *API) performSplit(name string, f *ShardedFilter, opt SplitOptions) (SplitResult, error) {
	wlog := a.wal()
	res, err := f.Split(name, opt, wlog)
	if err != nil {
		return res, err
	}
	if wlog != nil {
		rec, err := encodeSplit(name, res.SplitKey)
		if err == nil {
			_, err = a.appendWAL(rec)
		}
		if err != nil {
			return res, err
		}
	}
	a.resetSkewEpisode(name)
	a.cfg.Logf("server: info=span_split filter=%q shard=%d split_key=%d shards=%d epoch=%d replayed=%d",
		name, res.Shard, res.SplitKey, res.Shards, res.TableEpoch, res.Replayed)
	return res, nil
}

// resetSkewEpisode clears a filter's skew-alert episode after a topology
// change (or delete): key_skew is recomputed over the new spans on the
// next evaluation, and an alert that fired for the old topology may fire
// again if the new one still exceeds the threshold — without the reset, a
// split that fixed the skew would leave the episode latched and a later
// re-skew would never alert.
func (a *API) resetSkewEpisode(name string) {
	a.skewMu.Lock()
	delete(a.skewAlerted, name)
	delete(a.skewChecked, name)
	a.skewMu.Unlock()
}
