// Package aggregator implements the edge tier of the hierarchical
// fleet: an aggregator sits between devices and the root fleetd,
// absorbing check-ins and table uploads into a per-aggregator local
// store, serving regional policies, and federating the raw per-device
// tables upward to the root in batched, bounded, async pushes.
//
// The tier is a doppel-style coordinator/worker decomposition:
// aggregators are the workers (writes land in per-worker local
// stores), the root is the coordinator, and a federation epoch runs
// split → local-merge → federated-join phases so no lock — and no
// single process — spans a whole round. Aggregators forward raw
// device tables, so the root merges exactly the flat upload set; the
// merge is exact and order-independent (see cloud.Merger), which makes
// the root policy byte-identical to a flat single-tier merge of the
// same uploads.
//
// Backpressure is explicit: the upward queue is hard-bounded, a full
// queue answers 429 with Retry-After (surfaced to clients as
// fleetd.RetryAfterError), and replies start carrying an advisory
// backoff once the queue passes a soft watermark.
package aggregator

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
)

// maxTrackedDevices bounds the distinct-device set (same rationale as
// fleetd's: check-ins are unauthenticated).
const maxTrackedDevices = 1 << 16

// Config tunes an edge aggregator.
type Config struct {
	// ID names this aggregator in federation pushes and metrics (a
	// single [a-zA-Z0-9._-] segment; "" → "edge").
	ID string
	// Root is the root fleetd base URL. Empty runs the aggregator
	// standalone: devices get local merges and no upward federation.
	Root string
	// QueueLimit bounds distinct (policy, device) pairs awaiting upward
	// federation (0 → 4096). Past it, uploads are rejected with 429 +
	// Retry-After until a flush drains the queue.
	QueueLimit int
	// SoftLimitPct is the queue fill percentage past which upload
	// replies carry an advisory backoff hint (0 → 75).
	SoftLimitPct int
	// RetryAfterS is the delay advertised on queue-overflow rejections
	// (0 → 1 second).
	RetryAfterS int
	// FlushBatch caps device tables per federation push (0 → 256).
	FlushBatch int
	// FlushEvery is the background flush cadence (0 → 500ms; < 0
	// disables the background flusher — flushes then run only via
	// Flush, POST /v1/flush, or an epoch coordinator).
	FlushEvery time.Duration
	// MaxBodyBytes bounds device upload bodies (0 → 16 MiB).
	MaxBodyBytes int64
	// MaxDevicesPerKey bounds distinct devices per policy in the local
	// store (0 → the fleetd store default of 4096).
	MaxDevicesPerKey int
}

// Server is one edge aggregator: an http.Handler speaking the same
// device-facing API subset as fleetd, over a local store and a bounded
// upward federation queue.
type Server struct {
	cfg     Config
	store   *fleetd.Store
	root    *fleetd.Client // nil when standalone
	proxy   *http.Client
	rootURL string
	queue   *queue
	metrics *Metrics
	mux     *http.ServeMux

	devMu          sync.Mutex
	devices        map[string]struct{}
	pendingDevices map[string]struct{} // checked in since the last successful flush

	flushMu sync.Mutex // serializes Flush (handlers never hold it)

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an aggregator. Call Start to run the background flusher
// (when enabled), and Close to stop it.
func New(cfg Config) (*Server, error) {
	if cfg.ID == "" {
		cfg.ID = "edge"
	}
	if !fleetd.SafeName(cfg.ID) {
		return nil, fmt.Errorf("aggregator: bad ID %q (want a single [a-zA-Z0-9._-] segment)", cfg.ID)
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 4096
	}
	if cfg.SoftLimitPct <= 0 {
		cfg.SoftLimitPct = 75
	}
	if cfg.RetryAfterS <= 0 {
		cfg.RetryAfterS = 1
	}
	if cfg.FlushBatch <= 0 {
		cfg.FlushBatch = 256
	}
	if cfg.FlushEvery == 0 {
		cfg.FlushEvery = 500 * time.Millisecond
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	s := &Server{
		cfg:            cfg,
		store:          fleetd.NewStoreMaxDevices(cfg.MaxDevicesPerKey),
		queue:          newQueue(cfg.QueueLimit),
		metrics:        NewMetrics(),
		devices:        make(map[string]struct{}),
		pendingDevices: make(map[string]struct{}),
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	if cfg.Root != "" {
		s.rootURL = cfg.Root
		s.root = fleetd.NewClient(cfg.Root)
		s.proxy = &http.Client{Timeout: 10 * time.Second}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/checkin", s.instrument("checkin", s.handleCheckin))
	mux.HandleFunc("PUT /v1/table", s.instrument("upload", s.handleUpload))
	mux.HandleFunc("POST /v1/merge", s.instrument("merge", s.handleMerge))
	mux.HandleFunc("GET /v1/policy", s.instrument("policy", s.handlePolicy))
	mux.HandleFunc("GET /v1/apps", s.instrument("apps", s.handleApps))
	mux.HandleFunc("POST /v1/flush", s.instrument("flush", s.handleFlush))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux = mux
	return s, nil
}

// ID returns the aggregator's name.
func (s *Server) ID() string { return s.cfg.ID }

// Handler returns the device-facing http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the local table store (in-process callers, tests).
func (s *Server) Store() *fleetd.Store { return s.store }

// Metrics exposes the aggregator's instrumentation.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Pending reports how many device tables await upward federation.
func (s *Server) Pending() int { return s.queue.depth() }

// Start launches the background flusher (a no-op when federation or
// the cadence is disabled).
func (s *Server) Start() {
	if s.root == nil || s.cfg.FlushEvery < 0 {
		close(s.done)
		return
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.cfg.FlushEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Flush() // next tick retries; the queue kept the batch
			case <-s.stop:
				return
			}
		}
	}()
}

// Close stops the background flusher. It does not flush: a shutdown
// with a dead root would otherwise hang, and the queue's contents are
// re-uploadable by design (devices re-send tables every session).
func (s *Server) Close() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Flush drains pending device registrations and queued uploads to the
// root in FlushBatch-sized federation pushes until the queue is empty,
// returning how many tables the root accepted. On a push failure the
// batch returns to the queue and Flush stops — the next flush (or
// epoch) retries from where it left off.
func (s *Server) Flush() (forwarded int, err error) {
	if s.root == nil {
		return 0, nil
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for {
		devices := s.takePendingDevices()
		batch := s.queue.take(s.cfg.FlushBatch)
		if len(devices) == 0 && len(batch) == 0 {
			return forwarded, nil
		}
		req := fleetd.FederateRequest{Agg: s.cfg.ID, Devices: devices}
		for _, p := range batch {
			req.Uploads = append(req.Uploads, fleetd.FederatedUpload{
				Device: p.pk.device, Platform: p.pk.key.Platform, Body: p.body,
			})
		}
		reply, ferr := s.root.Federate(req)
		if ferr != nil {
			s.queue.putBack(batch)
			s.restorePendingDevices(devices)
			s.metrics.flushFailures.Add(1)
			return forwarded, fmt.Errorf("aggregator %s: federation push: %w", s.cfg.ID, ferr)
		}
		s.metrics.flushes.Add(1)
		s.metrics.forwarded.Add(int64(reply.Accepted))
		s.metrics.dropped.Add(int64(reply.Rejected)) // root refused: poisoned, not retried
		forwarded += reply.Accepted
	}
}

func (s *Server) takePendingDevices() []string {
	s.devMu.Lock()
	defer s.devMu.Unlock()
	if len(s.pendingDevices) == 0 {
		return nil
	}
	out := make([]string, 0, len(s.pendingDevices))
	for d := range s.pendingDevices {
		out = append(out, d)
	}
	s.pendingDevices = make(map[string]struct{})
	return out
}

func (s *Server) restorePendingDevices(devices []string) {
	s.devMu.Lock()
	defer s.devMu.Unlock()
	for _, d := range devices {
		s.pendingDevices[d] = struct{}{}
	}
}

// MergeLocal runs one local merge round for the key — the local-merge
// phase of a federation epoch, and what regional policy fallbacks
// serve from.
func (s *Server) MergeLocal(k fleetd.Key) (fleetd.MergeInfo, error) {
	start := time.Now()
	info, _, err := s.store.MergeSet(k)
	if err != nil {
		return fleetd.MergeInfo{}, err
	}
	info.LatencyUS = time.Since(start).Microseconds()
	return info, nil
}

type handlerFunc func(w http.ResponseWriter, r *http.Request) int

func (s *Server) instrument(label string, h handlerFunc) http.HandlerFunc {
	idx := labelIndex(label)
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.request(idx)
		if status := h(w, r); status >= 400 {
			s.metrics.errored(idx)
		}
	}
}

// apiError mirrors fleetd's JSON error envelope so fleetd.Client works
// unchanged against an aggregator.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
	return status
}

func writeErr(w http.ResponseWriter, status int, err error) int {
	return writeJSON(w, status, apiError{Error: err.Error()})
}

func (s *Server) handleCheckin(w http.ResponseWriter, r *http.Request) int {
	var req fleetd.CheckinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("aggregator: bad check-in body: %w", err))
	}
	if !fleetd.SafeName(req.Device) || !fleetd.SafeName(req.Platform) {
		return writeErr(w, http.StatusBadRequest,
			fmt.Errorf("aggregator: check-in needs device and platform as single [a-zA-Z0-9._-] segments"))
	}
	s.devMu.Lock()
	if _, seen := s.devices[req.Device]; !seen && len(s.devices) < maxTrackedDevices {
		s.devices[req.Device] = struct{}{}
	}
	if s.root != nil && len(s.pendingDevices) < maxTrackedDevices {
		// Registration rides the next flush so the root's device set and
		// rollout cohorts cover the whole fleet, not the aggregators.
		s.pendingDevices[req.Device] = struct{}{}
	}
	s.devMu.Unlock()
	reply := fleetd.CheckinReply{Device: req.Device, Platform: req.Platform, Policies: []fleetd.KeyInfo{}}
	for _, info := range s.store.Infos(req.Platform) {
		if info.Round > 0 {
			reply.Policies = append(reply.Policies, info)
		}
	}
	return writeJSON(w, http.StatusOK, reply)
}

// UploadReply is fleetd's upload acknowledgment plus the edge tier's
// backpressure signal: the upward-queue depth after the upload and,
// once the queue passes the soft watermark, an advisory delay the
// device should insert before its next upload. The hard signal — queue
// full — is a 429 with Retry-After, not a reply.
type UploadReply struct {
	fleetd.UploadReply
	Pending  int     `json:"pending"`
	BackoffS float64 `json:"backoff_s,omitempty"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) int {
	device := r.URL.Query().Get("device")
	platform := r.URL.Query().Get("platform")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("aggregator: upload exceeds %d bytes", tooBig.Limit))
		}
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("aggregator: reading upload: %w", err))
	}
	if r.Header.Get("X-Fleet-Base-Gen") != "" {
		// Edges don't track per-device upload generations (the queue
		// forwards raw bodies; the root's generations are not ours to
		// echo), so a delta upload can't be based here. 409 tells the
		// device to fall back to a full upload, same as a stale base.
		return writeErr(w, http.StatusConflict,
			fmt.Errorf("aggregator %s: delta uploads are not supported at the edge tier; send the full table", s.cfg.ID))
	}
	app, set, _, err := fleetd.DecodeTableSet(r.Header.Get("Content-Type"), data)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("aggregator: bad table upload: %w", err))
	}
	if err := learner.ValidateSet(set); err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("aggregator: upload from %q: %w", device, err))
	}
	k := fleetd.Key{App: app, Platform: platform}
	pk := pendKey{key: k, device: device}
	reply := UploadReply{UploadReply: fleetd.UploadReply{App: app, Platform: platform, Device: device}}
	if s.root != nil {
		// Queue before store: a rejected upload must be rejected whole —
		// accepting it locally while refusing to forward it would
		// silently fork the edge from the root.
		depth, ok := s.queue.put(pk, data)
		if !ok {
			s.metrics.rejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterS))
			return writeErr(w, http.StatusTooManyRequests,
				fmt.Errorf("aggregator %s: upload queue full (%d pending); retry after %ds",
					s.cfg.ID, depth, s.cfg.RetryAfterS))
		}
		reply.Pending = depth
		if depth*100 >= s.cfg.QueueLimit*s.cfg.SoftLimitPct {
			reply.BackoffS = float64(s.cfg.RetryAfterS)
		}
	}
	n, err := s.store.UploadSetOwned(k, device, set)
	if err != nil {
		s.queue.remove(pk) // nothing the local tier refused reaches the root
		return writeErr(w, http.StatusBadRequest, err)
	}
	reply.Devices = n
	return writeJSON(w, http.StatusOK, reply)
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) int {
	k := fleetd.Key{App: r.URL.Query().Get("app"), Platform: r.URL.Query().Get("platform")}
	info, err := s.MergeLocal(k)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err)
	}
	return writeJSON(w, http.StatusOK, info)
}

// handlePolicy proxies policy downloads to the root — preserving the
// device parameter, If-None-Match, and the rollout negotiation headers
// so staged-canary semantics survive the tier — and falls back to the
// local merged table when the root is unreachable or has no policy yet
// (stale-if-error regional serving). The X-Fleet-Source header names
// which tier answered.
func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) int {
	k := fleetd.Key{App: r.URL.Query().Get("app"), Platform: r.URL.Query().Get("platform")}
	if !fleetd.SafeName(k.App) || !fleetd.SafeName(k.Platform) {
		return writeErr(w, http.StatusBadRequest,
			fmt.Errorf("aggregator: policy needs app and platform as single [a-zA-Z0-9._-] segments"))
	}
	if s.root != nil {
		if status, ok := s.proxyPolicy(w, r); ok {
			return status
		}
	}
	set, round, ok := s.store.PolicySetRef(k)
	if !ok {
		return writeErr(w, http.StatusNotFound, fmt.Errorf("aggregator %s: no policy for %s at root or edge", s.cfg.ID, k))
	}
	// The edge fallback honors the same Accept negotiation as the root,
	// so a binary-mode device keeps its encoding when the root is down.
	data, ct, err := fleetd.EncodePolicy(k.App, set, fleetd.AcceptsBinary(r))
	if err != nil {
		return writeErr(w, http.StatusInternalServerError, err)
	}
	s.metrics.proxyFallbacks.Add(1)
	w.Header().Set("Content-Type", ct)
	w.Header().Set("X-Fleet-Round", strconv.FormatInt(round, 10))
	w.Header().Set("X-Fleet-Source", "edge")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
	return http.StatusOK
}

// proxiedPolicyHeaders are copied verbatim from the root's policy
// response so version negotiation (ETag/304, cohort, round) behaves as
// if the device had asked the root directly.
var proxiedPolicyHeaders = []string{"Content-Type", "ETag", "X-Fleet-Version", "X-Fleet-Cohort", "X-Fleet-Round"}

// proxyPolicy relays one policy download to the root. ok=false means
// the caller should fall back to the local store (transport failure or
// root 404); any other root answer is relayed as-is.
func (s *Server) proxyPolicy(w http.ResponseWriter, r *http.Request) (status int, ok bool) {
	u, err := url.Parse(s.rootURL + "/v1/policy")
	if err != nil {
		return 0, false
	}
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequest(http.MethodGet, u.String(), nil)
	if err != nil {
		return 0, false
	}
	if inm := r.Header.Get("If-None-Match"); inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	// Accept travels too, so the root answers in the device's
	// negotiated encoding and the relay stays a verbatim byte copy.
	if acc := r.Header.Get("Accept"); acc != "" {
		req.Header.Set("Accept", acc)
	}
	resp, err := s.proxy.Do(req)
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return 0, false
	}
	s.metrics.proxied.Add(1)
	for _, h := range proxiedPolicyHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set("X-Fleet-Source", "root")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return resp.StatusCode, true
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) int {
	infos := s.store.Infos(r.URL.Query().Get("platform"))
	if infos == nil {
		infos = []fleetd.KeyInfo{}
	}
	return writeJSON(w, http.StatusOK, infos)
}

// FlushReply is the POST /v1/flush body: how many tables the root
// accepted in this drain and how many remain queued.
type FlushReply struct {
	Agg       string `json:"agg"`
	Forwarded int    `json:"forwarded"`
	Pending   int    `json:"pending"`
}

func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) int {
	forwarded, err := s.Flush()
	if err != nil {
		return writeErr(w, http.StatusBadGateway, err)
	}
	return writeJSON(w, http.StatusOK, FlushReply{Agg: s.cfg.ID, Forwarded: forwarded, Pending: s.queue.depth()})
}

// HealthReply is the aggregator's /healthz body.
type HealthReply struct {
	Status    string  `json:"status"`
	Agg       string  `json:"agg"`
	Root      string  `json:"root,omitempty"`
	UptimeS   float64 `json:"uptime_s"`
	Policies  int     `json:"policies"`
	Merged    int     `json:"merged"`
	Tables    int     `json:"device_tables"`
	Devices   int     `json:"devices"`
	Pending   int     `json:"pending"`
	QueueCap  int     `json:"queue_cap"`
	Forwarded int64   `json:"forwarded"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	keys, merged, uploads := s.store.Stats()
	s.devMu.Lock()
	devices := len(s.devices)
	s.devMu.Unlock()
	return writeJSON(w, http.StatusOK, HealthReply{
		Status: "ok", Agg: s.cfg.ID, Root: s.rootURL,
		UptimeS:  time.Since(s.metrics.start).Seconds(),
		Policies: keys, Merged: merged, Tables: uploads, Devices: devices,
		Pending: s.queue.depth(), QueueCap: s.cfg.QueueLimit, Forwarded: s.metrics.forwarded.Load(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) int {
	keys, merged, uploads := s.store.Stats()
	s.devMu.Lock()
	devices := len(s.devices)
	s.devMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, s.queue.depth(), s.cfg.QueueLimit, keys, merged, uploads, devices, s.store.DeviceTableBytes())
	return http.StatusOK
}
