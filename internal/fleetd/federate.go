package fleetd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"nextdvfs/internal/core"
)

// This file is the root side of the hierarchical fleet: edge
// aggregators (internal/aggregator) batch what their devices uploaded
// and push it here over POST /v1/federate. Each item is one device's
// table: in full, or as a delta of the states that changed since the
// root last accepted that device's rows from the edge, applied through
// the same UploadDelta a direct delta upload takes. Either way the root
// holds each device's own rows and generation, exactly as if the device
// had uploaded directly, and the merge is exact and order-independent
// (see cloud.Merger), so a root merge round is byte-identical to a flat
// single-tier fleet's.

// FederatedUpload is one device's table relayed by an aggregator: the
// device and platform that produced it, the base generation, and the
// table body in either wire encoding. BaseGen 0 marks a full table; a
// positive BaseGen marks a delta that patches the rows the root
// accepted at that generation. The root re-validates and re-sanitizes
// the body as if the device had uploaded it directly.
type FederatedUpload struct {
	Device   string          `json:"device"`
	Platform string          `json:"platform"`
	BaseGen  int64           `json:"base_gen,omitempty"`
	Body     json.RawMessage `json:"body"`
}

// FederateRequest is one batched upward push from an edge aggregator.
type FederateRequest struct {
	// Agg names the pushing aggregator (a single [a-zA-Z0-9._-]
	// segment), for logs and partial-success attribution.
	Agg string `json:"agg"`
	// Root is the root instance (FederateReply.Root) that answered the
	// generations the delta items are based on; 0 when none is known.
	Root uint64 `json:"root,omitempty"`
	// Devices lists device IDs that checked in at the edge since the
	// last push, so root-side device tracking and rollout cohort floors
	// count the whole fleet, not the handful of aggregators.
	Devices []string `json:"devices,omitempty"`
	// Uploads carries the device tables, oldest first.
	Uploads []FederatedUpload `json:"uploads,omitempty"`
}

// FederateReply summarizes a federation push. Acceptance is per item:
// a poisoned upload is rejected (and sampled into Errors) while the
// rest of the batch lands, so an aggregator drops it instead of
// retrying the whole batch forever. A delta whose base generation the
// root does not hold is stale, not poisoned: the aggregator resends
// that device's full table.
type FederateReply struct {
	Agg string `json:"agg"`
	// Root identifies this root instance: a random ID drawn when the
	// server starts. A restarted root numbers generations afresh, so a
	// push whose Root differs has every delta answered stale instead of
	// patched onto rows that another base produced.
	Root       uint64   `json:"root"`
	Registered int      `json:"registered"`
	Accepted   int      `json:"accepted"`
	Stale      int      `json:"stale"`
	Rejected   int      `json:"rejected"`
	Errors     []string `json:"errors,omitempty"`
	// Results holds one entry per upload, in request order.
	Results []FederateResult `json:"results"`
}

// FederateResult is one item's outcome: Gen > 0 is the device's new
// generation at the root (the base of the next delta), Stale marks a
// delta whose base the root does not hold, and neither marks a
// rejected item.
type FederateResult struct {
	Gen   int64 `json:"gen,omitempty"`
	Stale bool  `json:"stale,omitempty"`
}

// maxFederateErrors caps the rejection-reason sample in a reply.
const maxFederateErrors = 8

func (s *Server) handleFederate(w http.ResponseWriter, r *http.Request) int {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxFederateBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("fleetd: federation push exceeds %d bytes", tooBig.Limit))
		}
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("fleetd: reading federation body: %w", err))
	}
	var req FederateRequest
	if mediaType(r.Header.Get("Content-Type")) == FederateMediaType {
		req, err = UnmarshalFederateRequest(data)
	} else {
		err = json.Unmarshal(data, &req)
	}
	if err != nil {
		return writeErr(w, http.StatusBadRequest, fmt.Errorf("fleetd: bad federation body: %w", err))
	}
	if !safeName(req.Agg) {
		return writeErr(w, http.StatusBadRequest,
			fmt.Errorf("fleetd: federation push needs an aggregator ID as a single [a-zA-Z0-9._-] segment"))
	}
	return writeJSON(w, http.StatusOK, s.federate(req))
}

// federate applies one decoded push: registrations first, then each
// item through the same validation and sanitization path a direct
// upload takes.
func (s *Server) federate(req FederateRequest) FederateReply {
	reply := FederateReply{Agg: req.Agg, Root: s.instance, Results: make([]FederateResult, len(req.Uploads))}
	for _, d := range req.Devices {
		if safeName(d) {
			s.noteDevice(d)
			reply.Registered++
		}
	}
	for i, up := range req.Uploads {
		if up.BaseGen > 0 && req.Root != s.instance {
			reply.Results[i].Stale = true
			reply.Stale++
			continue
		}
		gen, err := s.acceptFederated(up)
		switch {
		case err == nil:
			reply.Results[i].Gen = gen
			reply.Accepted++
		case errors.Is(err, ErrDeltaBase):
			reply.Results[i].Stale = true
			reply.Stale++
		default:
			reply.Rejected++
			if len(reply.Errors) < maxFederateErrors {
				reply.Errors = append(reply.Errors, err.Error())
			}
		}
	}
	return reply
}

// acceptFederated lands one relayed item and returns the device's new
// generation. Bodies are sniffed per item (UnmarshalTableSetAny)
// because one envelope may relay both wire encodings.
func (s *Server) acceptFederated(up FederatedUpload) (gen int64, err error) {
	if int64(len(up.Body)) > s.cfg.MaxBodyBytes {
		return 0, fmt.Errorf("fleetd: federated upload from %q exceeds %d bytes", up.Device, s.cfg.MaxBodyBytes)
	}
	if up.BaseGen < 0 {
		return 0, fmt.Errorf("fleetd: federated upload from %q has negative base generation %d", up.Device, up.BaseGen)
	}
	app, set, _, err := core.UnmarshalTableSetAny(up.Body)
	if err != nil {
		return 0, fmt.Errorf("fleetd: federated upload from %q: %w", up.Device, err)
	}
	k := Key{App: app, Platform: up.Platform}
	if up.BaseGen > 0 {
		_, gen, err = s.store.UploadDelta(k, up.Device, set, up.BaseGen)
	} else {
		_, gen, err = s.store.UploadSetGen(k, up.Device, set)
	}
	return gen, err
}

// Federate pushes a batch of device tables (and newly checked-in
// device IDs) upward to the root. Aggregators call it from their flush
// pipeline; devices never do. The envelope encoding is chosen
// automatically: if any body is binary (or the client is in
// binary mode) the push uses the NXTF envelope, since json.RawMessage
// cannot carry binary bodies; otherwise the legacy JSON envelope goes
// out byte-identical to before.
func (c *Client) Federate(req FederateRequest) (FederateReply, error) {
	binary := c.UseBinary
	for _, up := range req.Uploads {
		if core.IsBinaryTableSet(up.Body) {
			binary = true
			break
		}
	}
	var body []byte
	var err error
	contentType := "application/json"
	if binary {
		body, contentType = MarshalFederateRequest(req), FederateMediaType
	} else if body, err = json.Marshal(req); err != nil {
		return FederateReply{}, err
	}
	resp, err := c.http.Post(c.base+"/v1/federate", contentType, bytes.NewReader(body))
	if err != nil {
		return FederateReply{}, err
	}
	var reply FederateReply
	err = c.decode(resp, &reply)
	return reply, err
}
