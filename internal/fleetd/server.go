package fleetd

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/rollout"
)

// roundHeader carries the merge-round number on policy downloads.
const roundHeader = "X-Fleet-Round"

// baseGenHeader turns PUT /v1/table into a delta upload: it echoes the
// per-device generation from the device's last accepted UploadReply,
// and the body carries only the states trained since. A mismatch —
// device unknown, server restarted, another session uploaded in
// between — answers 409 Conflict and the client falls back to a full
// upload.
const baseGenHeader = "X-Fleet-Base-Gen"

// Version-negotiation headers on policy downloads when the rollout
// lifecycle is enabled.
const (
	versionHeader = "X-Fleet-Version"
	cohortHeader  = "X-Fleet-Cohort"
)

// maxTrackedDevices bounds the distinct-device set behind the
// fleetd_devices_seen gauge. Check-ins are unauthenticated, so an
// unbounded set would be a memory leak under ID-spraying traffic; past
// the cap new IDs are counted, not stored, and the gauge becomes a
// lower bound on distinct devices.
const maxTrackedDevices = 1 << 16

// Config tunes a Server.
type Config struct {
	// SnapshotDir, when set, is restored from at construction and
	// written to after every merge round (one atomic file per merged
	// app×platform policy). Empty disables persistence.
	SnapshotDir string
	// MaxBodyBytes bounds upload bodies (0 → 16 MiB).
	MaxBodyBytes int64
	// MaxFederateBytes bounds aggregator federation pushes, which batch
	// many device tables per request (0 → 64 MiB).
	MaxFederateBytes int64
	// MaxDevicesPerKey raises the distinct-devices-per-policy cap for
	// root servers that absorb whole aggregator regions of raw device
	// tables (0 → the store default of 4096). It is clamped to
	// math.MaxInt / 2^18 (8191 on 32-bit platforms) so a merged state's
	// visit weight always fits an int.
	MaxDevicesPerKey int
	// Rollout enables the policy-lifecycle subsystem: merge rounds mint
	// versioned artifacts that reach the fleet through staged canary
	// cohorts with automatic QoS/energy rollback. Nil disables it —
	// policy serving then behaves exactly as before.
	Rollout *rollout.Config
}

// Server is the fleet policy service: an http.Handler over a Store.
type Server struct {
	cfg     Config
	store   *Store
	metrics *Metrics
	rollout *rollout.Manager // nil unless Config.Rollout is set
	mux     *http.ServeMux

	devMu       sync.Mutex
	devices     map[string]struct{}
	devOverflow int
}

// NewServer builds a server, warm-starting from cfg.SnapshotDir when
// one is configured and present.
func NewServer(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 16 << 20
	}
	if cfg.MaxFederateBytes <= 0 {
		cfg.MaxFederateBytes = 64 << 20
	}
	s := &Server{
		cfg:     cfg,
		store:   NewStoreMaxDevices(cfg.MaxDevicesPerKey),
		metrics: NewMetrics(),
		devices: make(map[string]struct{}),
	}
	if cfg.SnapshotDir != "" {
		n, err := s.store.Restore(cfg.SnapshotDir)
		if err != nil {
			return nil, err
		}
		s.metrics.restored.Store(int64(n))
	}
	if cfg.Rollout != nil {
		s.rollout = rollout.New(*cfg.Rollout)
		if cfg.SnapshotDir != "" {
			if _, err := s.rollout.Restore(s.rolloutDir()); err != nil {
				return nil, err
			}
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/checkin", s.instrument("checkin", s.handleCheckin))
	mux.HandleFunc("PUT /v1/table", s.instrument("upload", s.handleUpload))
	mux.HandleFunc("POST /v1/merge", s.instrument("merge", s.handleMerge))
	mux.HandleFunc("POST /v1/federate", s.instrument("federate", s.handleFederate))
	mux.HandleFunc("GET /v1/policy", s.instrument("policy", s.handlePolicy))
	mux.HandleFunc("GET /v1/apps", s.instrument("apps", s.handleApps))
	mux.HandleFunc("GET /v1/rollout", s.instrument("rollout", s.handleRolloutStatus))
	mux.HandleFunc("POST /v1/rollout/advance", s.instrument("rollout", s.handleRolloutAdvance))
	mux.HandleFunc("POST /v1/rollout/rollback", s.instrument("rollout", s.handleRolloutRollback))
	mux.HandleFunc("POST /v1/report", s.instrument("report", s.handleReport))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux = mux
	return s, nil
}

// rolloutDir is where rollout lifecycle state snapshots live, beside
// (not inside) the per-policy table snapshots.
func (s *Server) rolloutDir() string { return filepath.Join(s.cfg.SnapshotDir, "rollout") }

// Rollout exposes the lifecycle manager (nil when disabled) for
// in-process callers and tests.
func (s *Server) Rollout() *rollout.Manager { return s.rollout }

// Handler returns the service's http.Handler (mountable under a parent
// mux or served directly).
func (s *Server) Handler() http.Handler { return s.mux }

// Store exposes the underlying table store (in-process callers, tests).
func (s *Server) Store() *Store { return s.store }

// Metrics exposes the server's instrumentation.
func (s *Server) Metrics() *Metrics { return s.metrics }

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// handlerFunc is a handler that reports its HTTP status so instrument
// can count errors.
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

func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
	return status
}

func writeErr(w http.ResponseWriter, status int, err error) int {
	return writeJSON(w, status, apiError{Error: err.Error()})
}

// CheckinRequest is a device's periodic announcement.
type CheckinRequest struct {
	Device   string `json:"device"`
	Platform string `json:"platform"`
}

// CheckinReply tells the device which merged policies exist for its
// platform, so it knows what to download and what still needs training.
type CheckinReply struct {
	Device   string    `json:"device"`
	Platform string    `json:"platform"`
	Policies []KeyInfo `json:"policies"`
}

func (s *Server) handleCheckin(w http.ResponseWriter, r *http.Request) int {
	var req CheckinRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("fleetd: bad check-in body: %w", err))
	}
	if !safeName(req.Device) || !safeName(req.Platform) {
		return writeErr(w, http.StatusBadRequest,
			fmt.Errorf("fleetd: check-in needs device and platform as single [a-zA-Z0-9._-] segments"))
	}
	s.noteDevice(req.Device)
	reply := CheckinReply{Device: req.Device, Platform: req.Platform, Policies: []KeyInfo{}}
	for _, info := range s.store.Infos(req.Platform) {
		if info.Round > 0 {
			reply.Policies = append(reply.Policies, info)
		}
	}
	return writeJSON(w, http.StatusOK, reply)
}

// noteDevice records a device in the bounded distinct-device set and
// registers it with the rollout lifecycle — the canary stage widens
// until it covers at least MinCanary registered devices. Check-ins and
// aggregator federation pushes share this path, so cohort floors count
// edge devices too.
func (s *Server) noteDevice(device string) {
	s.devMu.Lock()
	if _, seen := s.devices[device]; !seen {
		if len(s.devices) < maxTrackedDevices {
			s.devices[device] = struct{}{}
		} else {
			s.devOverflow++ // counted, not stored (lower-bound gauge)
		}
	}
	s.devMu.Unlock()
	if s.rollout != nil {
		s.rollout.RegisterDevice(device)
	}
}

// UploadReply acknowledges a table upload. Gen is the device's upload
// generation — echo it in the X-Fleet-Base-Gen header to send the next
// upload as a delta. Servers that don't track generations (aggregator
// edges) omit it.
type UploadReply struct {
	App      string `json:"app"`
	Platform string `json:"platform"`
	Device   string `json:"device"`
	Devices  int    `json:"devices"`
	Gen      int64  `json:"gen,omitempty"`
}

// mediaType normalizes a Content-Type/Accept member: parameters after
// ';' stripped, trimmed, lowercased.
func mediaType(v string) string {
	if i := strings.IndexByte(v, ';'); i >= 0 {
		v = v[:i]
	}
	return strings.ToLower(strings.TrimSpace(v))
}

// DecodeTableSet picks the wire codec by Content-Type: the binary
// media type decodes strictly as NXTB; every other type (including the
// default empty one) takes the legacy JSON path unchanged. The
// aggregator tier shares it so both tiers negotiate identically.
func DecodeTableSet(contentType string, data []byte) (string, *core.TableSet, bool, error) {
	if mediaType(contentType) == core.TableSetMediaType {
		return core.UnmarshalTableSetBinary(data)
	}
	return core.UnmarshalTableSet(data)
}

// AcceptsBinary reports whether any member of the request's Accept
// list names the binary table media type.
func AcceptsBinary(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if mediaType(part) == core.TableSetMediaType {
			return true
		}
	}
	return false
}

// EncodePolicy encodes a policy body in the negotiated encoding and
// returns the matching Content-Type.
func EncodePolicy(app string, set *core.TableSet, binary bool) ([]byte, string, error) {
	if binary {
		data, err := core.MarshalTableSetBinary(app, set, true)
		return data, core.TableSetMediaType, err
	}
	data, err := core.MarshalTableSetCompact(app, set, true)
	return data, "application/json", err
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) int {
	device := r.URL.Query().Get("device")
	platform := r.URL.Query().Get("platform")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("fleetd: upload exceeds %d bytes", tooBig.Limit))
		}
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("fleetd: reading upload: %w", err))
	}
	app, set, _, err := DecodeTableSet(r.Header.Get("Content-Type"), data)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("fleetd: bad table upload: %w", err))
	}
	k := Key{App: app, Platform: platform}
	if baseHdr := r.Header.Get(baseGenHeader); baseHdr != "" {
		baseGen, perr := strconv.ParseInt(baseHdr, 10, 64)
		if perr != nil {
			return writeErr(w, http.StatusBadRequest,
				fmt.Errorf("fleetd: bad %s header: %w", baseGenHeader, perr))
		}
		n, gen, err := s.store.UploadDelta(k, device, set, baseGen)
		if err != nil {
			if errors.Is(err, ErrDeltaBase) {
				return writeErr(w, http.StatusConflict, err)
			}
			return writeErr(w, http.StatusBadRequest, err)
		}
		return writeJSON(w, http.StatusOK,
			UploadReply{App: app, Platform: platform, Device: device, Devices: n, Gen: gen})
	}
	n, gen, err := s.store.UploadSetGen(k, device, set)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err)
	}
	return writeJSON(w, http.StatusOK,
		UploadReply{App: app, Platform: platform, Device: device, Devices: n, Gen: gen})
}

func (s *Server) handleMerge(w http.ResponseWriter, r *http.Request) int {
	k := Key{App: r.URL.Query().Get("app"), Platform: r.URL.Query().Get("platform")}
	start := time.Now()
	info, set, err := s.store.MergeSet(k)
	// Latency covers the merge itself, captured once so the reply and
	// the metric agree; snapshot disk I/O is deliberately excluded.
	elapsed := time.Since(start)
	if err != nil {
		return writeErr(w, http.StatusBadRequest, err)
	}
	info.LatencyUS = elapsed.Microseconds()
	s.metrics.observeMerge(elapsed)
	if s.rollout != nil {
		// Mint (or dedup to) this round's policy artifact. The merged set
		// is immutable once published, so the artifact shares it.
		art, err := cloud.NewArtifact(set, info.Round, info.Devices)
		if err != nil {
			return writeErr(w, http.StatusInternalServerError, fmt.Errorf("fleetd: building artifact for %s: %w", k, err))
		}
		sub, err := s.rollout.Submit(k.String(), art)
		if err != nil {
			return writeErr(w, http.StatusInternalServerError, err)
		}
		info.Version = sub.Version
	}
	if s.cfg.SnapshotDir != "" {
		if err := s.store.SnapshotKey(s.cfg.SnapshotDir, k); err != nil {
			return writeErr(w, http.StatusInternalServerError, fmt.Errorf("fleetd: snapshotting %s: %w", k, err))
		}
		s.metrics.snapshotWritten()
		if s.rollout != nil {
			if err := s.rollout.SnapshotKey(s.rolloutDir(), k.String()); err != nil {
				return writeErr(w, http.StatusInternalServerError, fmt.Errorf("fleetd: snapshotting rollout %s: %w", k, err))
			}
		}
	}
	return writeJSON(w, http.StatusOK, info)
}

// artifactETag derives the policy ETag a version-aware client echoes
// back via If-None-Match: the version plus a content-hash prefix, so a
// warm restart that renumbers nothing and a same-version different-
// content bug both invalidate correctly.
func artifactETag(meta core.ArtifactMeta) string {
	h := strings.TrimPrefix(meta.Hash, "sha256:")
	if len(h) > 12 {
		h = h[:12]
	}
	return fmt.Sprintf("%q", fmt.Sprintf("v%d-%s", meta.Version, h))
}

func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) int {
	k := Key{App: r.URL.Query().Get("app"), Platform: r.URL.Query().Get("platform")}
	if err := k.validate(); err != nil {
		return writeErr(w, http.StatusBadRequest, err)
	}
	device := r.URL.Query().Get("device")
	if device != "" && !safeName(device) {
		return writeErr(w, http.StatusBadRequest,
			fmt.Errorf("fleetd: device must be a single [a-zA-Z0-9._-] segment"))
	}
	// Accept-negotiated encoding. The ETag hashes the table content,
	// not the transfer encoding, so a client may switch encodings
	// between polls without invalidating its cache.
	binary := AcceptsBinary(r)
	if s.rollout != nil {
		if art, cohort, ok := s.rollout.Resolve(k.String(), device); ok {
			etag := artifactETag(art.ArtifactMeta)
			w.Header().Set(versionHeader, strconv.FormatInt(art.Version, 10))
			w.Header().Set(cohortHeader, cohort)
			w.Header().Set(roundHeader, strconv.FormatInt(art.Round, 10))
			w.Header().Set("ETag", etag)
			// Only version-aware clients (those that identify themselves)
			// get the skip-redundant-download path; a legacy client that
			// happens to send If-None-Match still gets the full body.
			if device != "" && r.Header.Get("If-None-Match") == etag {
				w.WriteHeader(http.StatusNotModified)
				return http.StatusNotModified
			}
			data, ct, err := EncodePolicy(k.App, art.Set, binary)
			if err != nil {
				return writeErr(w, http.StatusInternalServerError, err)
			}
			w.Header().Set("Content-Type", ct)
			w.WriteHeader(http.StatusOK)
			w.Write(data)
			return http.StatusOK
		}
		// No artifact yet for this key (e.g. lifecycle enabled over a
		// pre-rollout snapshot dir): fall through to the legacy path.
	}
	// PolicySetRef + compact marshal keeps the download path symmetric
	// with the optimized upload path: published sets are immutable, so
	// no defensive clone, and the wire needs no indentation. Multi-table
	// policies travel whole (aux roles under "aux"), so a Double-Q fleet
	// round-trips both estimators.
	set, round, ok := s.store.PolicySetRef(k)
	if !ok {
		return writeErr(w, http.StatusNotFound, fmt.Errorf("fleetd: no merged policy for %s", k))
	}
	data, ct, err := EncodePolicy(k.App, set, binary)
	if err != nil {
		return writeErr(w, http.StatusInternalServerError, err)
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set(roundHeader, strconv.FormatInt(round, 10))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
	return http.StatusOK
}

// errRolloutDisabled answers lifecycle endpoints on servers running
// without the rollout subsystem.
var errRolloutDisabled = errors.New("fleetd: rollout lifecycle not enabled on this server")

func (s *Server) handleRolloutStatus(w http.ResponseWriter, r *http.Request) int {
	if s.rollout == nil {
		return writeErr(w, http.StatusNotFound, errRolloutDisabled)
	}
	app, platform := r.URL.Query().Get("app"), r.URL.Query().Get("platform")
	if app == "" && platform == "" {
		return writeJSON(w, http.StatusOK, s.rollout.Statuses())
	}
	k := Key{App: app, Platform: platform}
	if err := k.validate(); err != nil {
		return writeErr(w, http.StatusBadRequest, err)
	}
	st, ok := s.rollout.Status(k.String())
	if !ok {
		return writeErr(w, http.StatusNotFound, fmt.Errorf("fleetd: no rollout state for %s", k))
	}
	return writeJSON(w, http.StatusOK, st)
}

// rolloutAction runs one admin lifecycle action (advance / rollback)
// and persists the resulting state.
func (s *Server) rolloutAction(w http.ResponseWriter, r *http.Request,
	act func(key string) (rollout.Decision, error)) int {
	if s.rollout == nil {
		return writeErr(w, http.StatusNotFound, errRolloutDisabled)
	}
	k := Key{App: r.URL.Query().Get("app"), Platform: r.URL.Query().Get("platform")}
	if err := k.validate(); err != nil {
		return writeErr(w, http.StatusBadRequest, err)
	}
	d, err := act(k.String())
	if err != nil {
		// "no active rollout" / "not enough reports yet" are state
		// conflicts, not malformed requests.
		return writeErr(w, http.StatusConflict, err)
	}
	if s.cfg.SnapshotDir != "" {
		if err := s.rollout.SnapshotKey(s.rolloutDir(), k.String()); err != nil {
			return writeErr(w, http.StatusInternalServerError, fmt.Errorf("fleetd: snapshotting rollout %s: %w", k, err))
		}
	}
	return writeJSON(w, http.StatusOK, d)
}

func (s *Server) handleRolloutAdvance(w http.ResponseWriter, r *http.Request) int {
	return s.rolloutAction(w, r, func(key string) (rollout.Decision, error) {
		return s.rollout.Advance(key)
	})
}

func (s *Server) handleRolloutRollback(w http.ResponseWriter, r *http.Request) int {
	return s.rolloutAction(w, r, func(key string) (rollout.Decision, error) {
		return s.rollout.Rollback(key)
	})
}

// ReportReply acknowledges an evaluation report with the cohort it
// counted toward.
type ReportReply struct {
	Device  string `json:"device"`
	Version int64  `json:"version"`
	Cohort  string `json:"cohort"`
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) int {
	if s.rollout == nil {
		return writeErr(w, http.StatusNotFound, errRolloutDisabled)
	}
	k := Key{App: r.URL.Query().Get("app"), Platform: r.URL.Query().Get("platform")}
	if err := k.validate(); err != nil {
		return writeErr(w, http.StatusBadRequest, err)
	}
	var rep rollout.EvalReport
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&rep); err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("fleetd: bad report body: %w", err))
	}
	if !safeName(rep.Device) {
		return writeErr(w, http.StatusBadRequest,
			fmt.Errorf("fleetd: report needs a device as a single [a-zA-Z0-9._-] segment"))
	}
	cohort, err := s.rollout.Report(k.String(), rep)
	if err != nil {
		return writeErr(w, http.StatusConflict, err)
	}
	return writeJSON(w, http.StatusOK, ReportReply{Device: rep.Device, Version: rep.Version, Cohort: cohort})
}

func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) int {
	infos := s.store.Infos(r.URL.Query().Get("platform"))
	if infos == nil {
		infos = []KeyInfo{}
	}
	return writeJSON(w, http.StatusOK, infos)
}

// HealthReply is the /healthz body.
type HealthReply struct {
	Status       string  `json:"status"`
	UptimeS      float64 `json:"uptime_s"`
	Policies     int     `json:"policies"`
	Merged       int     `json:"merged"`
	DeviceTables int     `json:"device_tables"`
	Devices      int     `json:"devices"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) int {
	keys, merged, uploads := s.store.Stats()
	s.devMu.Lock()
	devices := len(s.devices)
	s.devMu.Unlock()
	return writeJSON(w, http.StatusOK, HealthReply{
		Status: "ok", UptimeS: time.Since(s.metrics.start).Seconds(),
		Policies: keys, Merged: merged, DeviceTables: uploads, Devices: devices,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) int {
	keys, merged, uploads := s.store.Stats()
	s.devMu.Lock()
	devices, untracked := len(s.devices), s.devOverflow
	s.devMu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, keys, merged, uploads, devices, untracked, s.store.DeviceTableBytes())
	if s.rollout != nil {
		writeRolloutMetrics(w, s.rollout.Statuses(), s.rollout.RollbacksTotal())
	}
	return http.StatusOK
}
