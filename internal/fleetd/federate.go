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
// aggregators (internal/aggregator) batch device uploads and push them
// here over POST /v1/federate. The root stores the raw per-device
// tables exactly as if each device had uploaded directly, and the merge
// is exact and order-independent (see cloud.Merger), so a root merge
// round is byte-identical to a flat single-tier fleet's.

// FederatedUpload is one device's table relayed by an aggregator: the
// device and platform that produced it plus the compact wire body the
// device originally uploaded, unmodified. The root re-validates and
// re-sanitizes it as if the device had uploaded directly.
type FederatedUpload struct {
	Device   string          `json:"device"`
	Platform string          `json:"platform"`
	Body     json.RawMessage `json:"body"`
}

// FederateRequest is one batched upward push from an edge aggregator.
type FederateRequest struct {
	// Agg names the pushing aggregator (a single [a-zA-Z0-9._-]
	// segment), for logs and partial-success attribution.
	Agg string `json:"agg"`
	// Devices lists device IDs that checked in at the edge since the
	// last push, so root-side device tracking and rollout cohort floors
	// count the whole fleet, not the handful of aggregators.
	Devices []string `json:"devices,omitempty"`
	// Uploads carries the queued device tables, oldest first.
	Uploads []FederatedUpload `json:"uploads,omitempty"`
}

// FederateReply summarizes a federation push. Acceptance is per item:
// a poisoned upload is rejected (and sampled into Errors) while the
// rest of the batch lands, so an aggregator drops it instead of
// retrying the whole batch forever.
type FederateReply struct {
	Agg        string   `json:"agg"`
	Registered int      `json:"registered"`
	Accepted   int      `json:"accepted"`
	Rejected   int      `json:"rejected"`
	Errors     []string `json:"errors,omitempty"`
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
	reply := FederateReply{Agg: req.Agg}
	for _, d := range req.Devices {
		if safeName(d) {
			s.noteDevice(d)
			reply.Registered++
		}
	}
	for _, up := range req.Uploads {
		if err := s.acceptFederated(up); err != nil {
			reply.Rejected++
			if len(reply.Errors) < maxFederateErrors {
				reply.Errors = append(reply.Errors, err.Error())
			}
			continue
		}
		reply.Accepted++
	}
	return writeJSON(w, http.StatusOK, reply)
}

// acceptFederated lands one relayed device table through the same
// validation and sanitization path a direct upload takes. Bodies are
// sniffed per upload (UnmarshalTableSetAny) because one envelope may
// relay a mixed fleet of binary and legacy-JSON devices.
func (s *Server) acceptFederated(up FederatedUpload) error {
	if int64(len(up.Body)) > s.cfg.MaxBodyBytes {
		return fmt.Errorf("fleetd: federated upload from %q exceeds %d bytes", up.Device, s.cfg.MaxBodyBytes)
	}
	app, set, _, err := core.UnmarshalTableSetAny(up.Body)
	if err != nil {
		return fmt.Errorf("fleetd: federated upload from %q: %w", up.Device, err)
	}
	_, err = s.store.UploadSetOwned(Key{App: app, Platform: up.Platform}, up.Device, set)
	return err
}

// Federate pushes a batch of device tables (and newly checked-in
// device IDs) upward to the root. Aggregators call it from their flush
// pipeline; devices never do. The envelope encoding is chosen
// automatically: if any queued body is binary (or the client is in
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
