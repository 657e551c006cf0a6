package fleetd

import (
	"errors"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// DeltaUploader wraps a Client with the delta-upload state machine for
// one device×app×platform stream: it remembers the last accepted
// upload and its generation, diffs each new snapshot against it, and
// sends only the changed states with the generation echoed in
// X-Fleet-Base-Gen. Any base mismatch (server restart, store eviction,
// a competing uploader) comes back as 409 and the uploader transparently
// re-sends the full table, re-arming delta mode from the new
// generation. Servers that don't track generations — aggregator edges,
// whose replies carry no gen — permanently disable delta mode for this
// stream and every later upload goes out full, exactly as before.
//
// The acked base is kept packed (learner.PackedSet: sorted keys and one
// flat row slice per role), the same form the server stores device
// tables in: the diff reads it with binary searches, and accepting a
// reply re-packs it in place, so a steady stream allocates no copy of
// the table per upload.
//
// Not safe for concurrent use; each simulated device owns its own
// DeltaUploader (matching the one-session-per-device fleet model).
type DeltaUploader struct {
	c                     *Client
	device, platform, app string

	gen      int64
	base     *learner.PackedSet
	disabled bool
}

// NewDeltaUploader starts a delta-upload stream. The first Upload is
// always full.
func (c *Client) NewDeltaUploader(device, platform, app string) *DeltaUploader {
	return &DeltaUploader{c: c, device: device, platform: platform, app: app}
}

// Upload sends the device's current table set, as a delta when
// possible. The set is read, never retained or mutated; callers may
// keep training on it afterwards.
func (d *DeltaUploader) Upload(set *core.TableSet) (UploadReply, error) {
	if !d.disabled && d.gen > 0 && d.base != nil {
		if delta, ok := diffPacked(d.base, set); ok {
			reply, err := d.c.UploadTableSetDelta(d.device, d.platform, d.app, delta, d.gen)
			switch {
			case err == nil:
				d.accept(set, reply)
				return reply, nil
			case errors.Is(err, ErrDeltaBase):
				// Base gone — fall through to a full upload.
			default:
				return reply, err
			}
		}
		// Deltas can only add or replace states (the merge treats an
		// absent state as "unchanged", not "deleted"), so a snapshot
		// that dropped states also falls back to a full upload.
	}
	reply, err := d.c.UploadTableSet(d.device, d.platform, d.app, set)
	if err != nil {
		return reply, err
	}
	d.accept(set, reply)
	return reply, nil
}

func (d *DeltaUploader) accept(set *core.TableSet, reply UploadReply) {
	if reply.Gen <= 0 {
		// This tier doesn't track generations; stop diffing for good.
		d.disabled, d.gen, d.base = true, 0, nil
		return
	}
	if d.base == nil {
		d.base = &learner.PackedSet{}
	}
	if err := d.base.Repack(set); err != nil {
		// A set the server took but that does not pack (ragged rows)
		// leaves no base: the next upload goes out full.
		d.gen, d.base = 0, nil
		return
	}
	d.gen = reply.Gen
}

// diffPacked returns a set carrying only the states of next whose row
// or visit count differs from the packed base, with each role's
// metadata (Steps, TrainedUS, ConvergedAtUS) absolute — matching the
// overlay semantics of Store.UploadDelta. The delta's rows alias next's.
// ok is false when the diff cannot be expressed as an overlay: layout
// changed, or next dropped a state or visit count the base had.
func diffPacked(base *learner.PackedSet, next *core.TableSet) (*core.TableSet, bool) {
	if base == nil || next == nil || len(base.Roles) != len(next.Roles) ||
		learner.Normalize(base.Learner) != learner.Normalize(next.Learner) {
		return nil, false
	}
	delta := &core.TableSet{Learner: next.Learner, Roles: make([]learner.RoleTable, len(next.Roles))}
	for i, r := range next.Roles {
		p, nt := &base.Roles[i], r.Table
		if p.Role != r.Role || nt == nil || p.Actions != nt.Actions {
			return nil, false
		}
		// Overlays can't delete: every state and visit entry the base
		// had must still exist in next, else only a full upload can
		// express the change.
		for _, s := range p.RowKeys() {
			if _, still := nt.Q[s]; !still {
				return nil, false
			}
		}
		for _, s := range p.VisitKeys() {
			if _, still := nt.Visits[s]; !still {
				return nil, false
			}
		}
		dt := core.NewQTable(nt.Actions)
		dt.Steps = nt.Steps
		dt.TrainedUS = nt.TrainedUS
		dt.ConvergedAtUS = nt.ConvergedAtUS
		for s, row := range nt.Q {
			if j, had := p.Find(s); had {
				pv, _ := p.Visit(s)
				if pv == nt.Visits[s] && equalActionRow(p.Row(j), row) {
					continue
				}
			}
			dt.Q[s] = row
			if v, ok := nt.Visits[s]; ok {
				dt.Visits[s] = v
			}
		}
		// Visit counts without rows (legal, merge-inert) still need to
		// travel when they change.
		for s, v := range nt.Visits {
			if _, hasRow := nt.Q[s]; hasRow {
				continue
			}
			if pv, had := p.Visit(s); !had || pv != v {
				dt.Visits[s] = v
			}
		}
		delta.Roles[i] = learner.RoleTable{Role: r.Role, Table: dt}
	}
	return delta, true
}

func equalActionRow(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
