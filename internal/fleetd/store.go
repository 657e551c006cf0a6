package fleetd

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// Key identifies one fleet policy: an application trained on a device
// platform. Tables from different platforms never merge — their action
// spaces (3 per cluster) differ with the cluster count.
type Key struct {
	App      string `json:"app"`
	Platform string `json:"platform"`
}

func (k Key) String() string { return k.App + "@" + k.Platform }

// safeName guards every identifier that later becomes a snapshot path
// component (app and platform name files and directories under the
// snapshot dir) or a store map key: one path segment of
// [a-zA-Z0-9._-], no separators, no "." / "..". Requests come from
// unauthenticated devices, so "../../../tmp/pwn" must die here, not in
// filepath.Join (which would happily clean and escape it).
func safeName(s string) bool {
	if s == "" || len(s) > 128 || s == "." || s == ".." {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// SafeName reports whether s passes the store's identifier rules (the
// aggregator tier applies the same validation before queueing uploads
// for upward federation).
func SafeName(s string) bool { return safeName(s) }

func (k Key) validate() error {
	if !safeName(k.App) {
		return fmt.Errorf("fleetd: bad app name %q (want a single [a-zA-Z0-9._-] segment)", k.App)
	}
	if !safeName(k.Platform) {
		return fmt.Errorf("fleetd: bad platform name %q (want a single [a-zA-Z0-9._-] segment)", k.Platform)
	}
	return nil
}

// numShards stripes the store's locks. Requests for different
// app×platform keys proceed in parallel; only same-key operations
// serialize, which is exactly the ordering a merge round needs.
const numShards = 16

// Uploads are unauthenticated, so the store bounds every axis a
// spraying client could grow: distinct app×platform keys per shard,
// distinct devices per key, and the (state, action) cells a key's
// merger holds. Each cell keeps an exact sum of about 150 B whatever its
// values, so without the cell cap one 16 MB upload of zero rows could
// pin gigabytes; at 2^20 cells a key's sums stay near 160 MB, about
// what the largest upload body costs as stored rows. A real table is a
// few hundred states × 3 actions per cluster. All sit far above any
// real fleet this repo simulates; hitting one returns an error, never
// silent eviction.
const (
	maxKeysPerShard  = 1024
	maxDevicesPerKey = 4096
	maxCellsPerKey   = 1 << 20
)

// Uploaded tables are attacker-controlled JSON, so every quantity that
// feeds the federated merge is clamped into ranges the merge cannot
// overflow. maxVisitWeight bounds a state's visit count: a merged
// state's weight is the sum of its devices' counts and is served as an
// int, so deviceCap bounds devices per key by math.MaxInt /
// maxVisitWeight (8191 on 32-bit platforms) — and 2^18 visits of one
// state is hours of control steps, far beyond any real session.
// maxQValue bounds Q magnitudes below the merge's cloud.MaxAbsQ (2^40):
// PPDW-reward Q-values are O(1), so 1e12 is astronomically above
// legitimate data, and a hostile value cannot dominate a policy.
// maxCounter bounds the Steps/TrainedUS bookkeeping sums the same way.
const (
	maxVisitWeight = 1 << 18
	maxQValue      = 1e12
	maxCounter     = int64(1) << 48
)

// sanitizeSet clamps every role table of an uploaded set.
func sanitizeSet(set *learner.TableSet) {
	for _, r := range set.Roles {
		sanitizeTable(r.Table)
	}
}

// sanitizeTable clamps an uploaded table's counters and Q-values into
// merge-safe ranges (see the constant block above for why each bound
// exists).
func sanitizeTable(t *core.QTable) {
	for s, v := range t.Visits {
		if v < 0 {
			t.Visits[s] = 0
		} else if v > maxVisitWeight {
			t.Visits[s] = maxVisitWeight
		}
	}
	for _, row := range t.Q {
		for i, v := range row {
			switch {
			case v != v: // JSON cannot carry NaN, but NXTB decodes raw IEEE bits
				row[i] = 0
			case v > maxQValue:
				row[i] = maxQValue
			case v < -maxQValue:
				row[i] = -maxQValue
			}
		}
	}
	clamp := func(v *int64) {
		if *v < 0 {
			*v = 0
		} else if *v > maxCounter {
			*v = maxCounter
		}
	}
	clamp(&t.Steps)
	clamp(&t.TrainedUS)
	clamp(&t.ConvergedAtUS)
}

// Store is fleetd's in-memory table store: a fixed array of shards,
// each a mutex-striped map from Key to the per-policy entry (the
// merger holding every device's latest rows, plus the current merged
// table).
type Store struct {
	shards [numShards]storeShard
	// maxDevices bounds distinct devices per key (maxDevicesPerKey by
	// default). A root store absorbing whole aggregator regions raises
	// it via NewStoreMaxDevices — see docs/operations.md, "Capacity
	// limits".
	maxDevices int
}

type storeShard struct {
	mu      sync.RWMutex
	entries map[Key]*entry
}

type entry struct {
	// merged is the current served policy, nil until the first merge
	// round (or snapshot restore); round counts merge rounds.
	merged *learner.TableSet
	round  int64
	// merger holds each device's latest upload as packed rows (copies —
	// the store never aliases caller memory) and the exact merge sums
	// over them: every accepted upload swaps its device's old
	// contribution for the new one, and a merge round rounds only the
	// cells that changed.
	merger *cloud.Merger
	// devGen counts accepted uploads per device — the generation a
	// delta upload must echo to prove its base is the table the store
	// holds (see UploadDelta). Its keys are the key's devices.
	devGen map[string]int64
}

func newEntry() *entry {
	return &entry{
		merger: cloud.NewBoundedMerger(maxCellsPerKey),
		devGen: make(map[string]int64),
	}
}

// NewStore returns an empty store with the default per-key device cap.
func NewStore() *Store { return NewStoreMaxDevices(0) }

// NewStoreMaxDevices returns an empty store accepting up to maxDevices
// distinct devices per policy key (≤ 0 → the default cap; see deviceCap
// for the ceiling). The root of a hierarchical fleet holds the raw
// per-device tables of every region, so its cap is sized to the whole
// fleet, while edge aggregators and standalone servers keep the
// tighter anti-spray bound.
func NewStoreMaxDevices(maxDevices int) *Store {
	s := &Store{maxDevices: int(deviceCap(int64(maxDevices), math.MaxInt))}
	for i := range s.shards {
		s.shards[i].entries = make(map[Key]*entry)
	}
	return s
}

// deviceCap resolves a requested per-key device cap on a platform whose
// int holds at most maxInt: ≤ 0 selects maxDevicesPerKey, and anything
// above maxInt / maxVisitWeight is clamped there, so a merged state's
// weight — up to maxVisitWeight per device — always fits an int.
func deviceCap(requested, maxInt int64) int64 {
	if requested <= 0 {
		requested = maxDevicesPerKey
	}
	return min(requested, maxInt/maxVisitWeight)
}

func (s *Store) shardFor(k Key) *storeShard {
	h := fnv.New32a()
	h.Write([]byte(k.App))
	h.Write([]byte{0})
	h.Write([]byte(k.Platform))
	return &s.shards[h.Sum32()%numShards]
}

// Upload records a device's latest table for the key, replacing any
// previous upload from the same device. It returns how many devices
// have contributed. The action-space size must match what the fleet
// already holds. The store keeps a packed copy of the rows and never
// touches t; use UploadOwned when the caller hands over ownership.
func (s *Store) Upload(k Key, device string, t *core.QTable) (devices int, err error) {
	if t != nil {
		t = t.Clone()
	}
	return s.UploadOwned(k, device, t)
}

// UploadOwned is UploadSetOwned for a plain single-table upload (the
// watkins wire format).
func (s *Store) UploadOwned(k Key, device string, t *core.QTable) (devices int, err error) {
	if t == nil {
		return 0, fmt.Errorf("fleetd: %s: nil table from %q", k, device)
	}
	return s.UploadSetOwned(k, device, learner.SingleTableSet(t))
}

// UploadSet records a device's complete learner table set; set itself
// is left untouched.
func (s *Store) UploadSet(k Key, device string, set *learner.TableSet) (devices int, err error) {
	if set != nil {
		set = set.Clone()
	}
	return s.UploadSetOwned(k, device, set)
}

// UploadSetOwned is UploadSet without the defensive copy: the store
// clamps the set's values in place before packing a copy of its rows,
// so the caller must not need the set afterwards (the HTTP handler
// qualifies — each request unmarshals a fresh set). Every upload for a key
// must come from the same learner (same registry name and role layout):
// tables merge role-by-role, and averaging a Double-Q estimator into a
// single-table policy would silently corrupt both.
func (s *Store) UploadSetOwned(k Key, device string, set *learner.TableSet) (devices int, err error) {
	devices, _, err = s.UploadSetGen(k, device, set)
	return devices, err
}

// UploadSetGen is UploadSetOwned returning the device's new upload
// generation alongside the device count — the value the server echoes
// so the client can base its next delta upload on this one.
func (s *Store) UploadSetGen(k Key, device string, set *learner.TableSet) (devices int, gen int64, err error) {
	if err := k.validate(); err != nil {
		return 0, 0, err
	}
	if !safeName(device) {
		return 0, 0, fmt.Errorf("fleetd: %s: bad device ID %q (want a single [a-zA-Z0-9._-] segment)", k, device)
	}
	if set == nil || set.Primary() == nil {
		return 0, 0, fmt.Errorf("fleetd: %s: empty table set from %q", k, device)
	}
	// Registry validation before anything is stored: a hostile first
	// upload with a made-up learner name (or bogus role names) would
	// otherwise pin an unmatchable layout onto the key and lock out
	// every legitimate device.
	if err := learner.ValidateSet(set); err != nil {
		return 0, 0, fmt.Errorf("fleetd: %s: upload from %q: %w", k, device, err)
	}
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, err := s.entryForUpload(sh, k, device, set)
	if err != nil {
		return 0, 0, err
	}
	sanitizeSet(set)
	if err := e.merger.Upload(device, set); err != nil {
		return 0, 0, fmt.Errorf("fleetd: %s: upload from %q: %w", k, device, err)
	}
	e.devGen[device]++
	return len(e.devGen), e.devGen[device], nil
}

// entryForUpload runs the per-entry admission checks (key/device caps,
// action-space and learner consistency) and returns the entry, creating
// it on first contact. Callers hold the shard write lock.
func (s *Store) entryForUpload(sh *storeShard, k Key, device string, set *learner.TableSet) (*entry, error) {
	e := sh.entries[k]
	if e == nil {
		if len(sh.entries) >= maxKeysPerShard {
			return nil, fmt.Errorf("fleetd: %s: policy-key limit reached (%d per shard)", k, maxKeysPerShard)
		}
		e = newEntry()
		sh.entries[k] = e
	}
	// ValidateSet already pinned the role layout to the learner name,
	// so cross-upload consistency reduces to the name and action count.
	if name, actions, ok := e.layout(); ok {
		if set.Primary().Actions != actions {
			return nil, fmt.Errorf("fleetd: %s: upload from %q has %d actions, fleet has %d", k, device, set.Primary().Actions, actions)
		}
		if learner.Normalize(set.Learner) != name {
			return nil, fmt.Errorf("fleetd: %s: upload from %q: learner %q does not match the fleet's %q",
				k, device, learner.Normalize(set.Learner), name)
		}
	}
	if _, seen := e.devGen[device]; !seen && len(e.devGen) >= s.maxDevices {
		return nil, fmt.Errorf("fleetd: %s: device limit reached (%d)", k, s.maxDevices)
	}
	return e, nil
}

// layout returns the entry's established learner and action count:
// the merger's, else the merged policy's (a restored key), ok=false
// before either exists. Callers hold the lock.
func (e *entry) layout() (learnerName string, actions int, ok bool) {
	if learnerName, actions, ok = e.merger.Layout(); ok || e.merged == nil {
		return learnerName, actions, ok
	}
	return learner.Normalize(e.merged.Learner), e.merged.Primary().Actions, true
}

// ErrDeltaBase marks a delta upload whose base generation does not
// match the set the store holds for the device — the client's view is
// stale (server restart, lost reply, aggregator tier that does not
// store deltas) and it must fall back to a full upload. The server
// maps it to HTTP 409.
var ErrDeltaBase = errors.New("fleetd: delta base generation mismatch")

// UploadDelta applies a delta upload: a table set carrying only the
// states changed since the device's last accepted upload (plus
// absolute metadata), guarded by the generation echo from that upload.
// The delta's layout must match the stored base exactly; states in the
// delta replace the base's, states absent carry over — patched into
// the device's packed rows in place (see cloud.Merger.Patch). On
// success it returns the device count and the new generation for the
// next delta.
// A missing base or a stale baseGen fails with ErrDeltaBase (full
// upload required); the store is never modified on error.
func (s *Store) UploadDelta(k Key, device string, delta *learner.TableSet, baseGen int64) (devices int, gen int64, err error) {
	if err := k.validate(); err != nil {
		return 0, 0, err
	}
	if !safeName(device) {
		return 0, 0, fmt.Errorf("fleetd: %s: bad device ID %q (want a single [a-zA-Z0-9._-] segment)", k, device)
	}
	if delta == nil || delta.Primary() == nil {
		return 0, 0, fmt.Errorf("fleetd: %s: empty delta from %q", k, device)
	}
	if err := learner.ValidateSet(delta); err != nil {
		return 0, 0, fmt.Errorf("fleetd: %s: delta from %q: %w", k, device, err)
	}
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[k]
	if e == nil {
		return 0, 0, fmt.Errorf("fleetd: %s: delta from %q: %w (no uploads for key)", k, device, ErrDeltaBase)
	}
	have, ok := e.devGen[device]
	if !ok {
		return 0, 0, fmt.Errorf("fleetd: %s: delta from %q: %w (no base upload)", k, device, ErrDeltaBase)
	}
	if have != baseGen {
		return 0, 0, fmt.Errorf("fleetd: %s: delta from %q: %w (base %d, store at %d)", k, device, ErrDeltaBase, baseGen, have)
	}
	// ValidateSet pinned both role layouts to their learner names, so
	// the layouts match when the names and action counts do.
	if name, actions, _ := e.merger.Layout(); learner.Normalize(delta.Learner) != name ||
		delta.Primary().Actions != actions {
		return 0, 0, fmt.Errorf("fleetd: %s: delta from %q does not match the stored base layout", k, device)
	}
	// The stored base is already sanitized; the delta's rows are
	// sanitized before they reach it.
	sanitizeSet(delta)
	if err := e.merger.Patch(device, delta); err != nil {
		return 0, 0, fmt.Errorf("fleetd: %s: delta from %q: %w", k, device, err)
	}
	e.devGen[device]++
	return len(e.devGen), e.devGen[device], nil
}

// MergeInfo summarizes one federated merge round.
type MergeInfo struct {
	App       string `json:"app"`
	Platform  string `json:"platform"`
	Round     int64  `json:"round"`
	Devices   int    `json:"devices"`
	States    int    `json:"states"`
	LatencyUS int64  `json:"latency_us"`
	// Version is the policy artifact the round minted (or deduped to)
	// when the server runs the rollout lifecycle; 0 otherwise.
	Version int64 `json:"version,omitempty"`
}

// Merge runs a federated merge round for the key over every device's
// latest upload. Each merged value is the correctly rounded visit-
// weighted mean Σw·q / Σw of its devices' values, so the policy is a
// function of the upload set alone: whatever order uploads and
// concurrent rounds interleave in, a round over the same final uploads
// serves the same bytes.
func (s *Store) Merge(k Key) (MergeInfo, error) {
	info, _, err := s.MergeSet(k)
	return info, err
}

// MergeSet is Merge returning the merged table set alongside the round
// summary — the reference is the freshly installed, immutable
// published set, handed back so the rollout layer can wrap the round's
// output as a policy artifact without re-locking the shard (and
// without racing a concurrent round for "which set did my round
// produce"). The round rounds only the cells uploads changed since the
// last one, under the shard write lock.
func (s *Store) MergeSet(k Key) (MergeInfo, *learner.TableSet, error) {
	if err := k.validate(); err != nil {
		return MergeInfo{}, nil, err
	}
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.entries[k]
	if e == nil || len(e.devGen) == 0 {
		return MergeInfo{}, nil, fmt.Errorf("fleetd: %s: no device tables to merge", k)
	}
	merged := e.merger.Merge()
	e.merged = merged
	e.round++
	return MergeInfo{
		App: k.App, Platform: k.Platform,
		Round: e.round, Devices: len(e.devGen), States: merged.Primary().States(),
	}, merged, nil
}

// Policy returns a deep copy of the key's current merged primary table
// and its round number, or ok=false if no merge round has run yet.
func (s *Store) Policy(k Key) (t *core.QTable, round int64, ok bool) {
	set, round, ok := s.PolicySetRef(k)
	if !ok {
		return nil, 0, false
	}
	return set.Primary().Clone(), round, true
}

// PolicyRef is Policy without the deep copy. Published merged tables
// are immutable — Merge and Restore always install freshly built
// tables, never mutate one in place — so read-only consumers (the HTTP
// download path, snapshotting) may share the reference; callers that
// intend to mutate must use Policy.
func (s *Store) PolicyRef(k Key) (t *core.QTable, round int64, ok bool) {
	set, round, ok := s.PolicySetRef(k)
	if !ok {
		return nil, 0, false
	}
	return set.Primary(), round, true
}

// PolicySet returns a deep copy of the key's merged learner table set.
func (s *Store) PolicySet(k Key) (set *learner.TableSet, round int64, ok bool) {
	set, round, ok = s.PolicySetRef(k)
	if ok {
		set = set.Clone()
	}
	return set, round, ok
}

// PolicySetRef is PolicySet without the deep copy (same immutability
// contract as PolicyRef).
func (s *Store) PolicySetRef(k Key) (set *learner.TableSet, round int64, ok bool) {
	sh := s.shardFor(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.entries[k]
	if e == nil || e.merged == nil {
		return nil, 0, false
	}
	return e.merged, e.round, true
}

// KeyInfo describes one stored policy for listings and check-ins.
type KeyInfo struct {
	Key
	Devices int   `json:"devices"`
	Round   int64 `json:"round"`
	States  int   `json:"states"`
}

// Infos lists every key (platform == "" ) or just one platform's keys,
// sorted by platform then app.
func (s *Store) Infos(platform string) []KeyInfo {
	var infos []KeyInfo
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, e := range sh.entries {
			if platform != "" && k.Platform != platform {
				continue
			}
			info := KeyInfo{Key: k, Devices: len(e.devGen), Round: e.round}
			if e.merged != nil {
				info.States = e.merged.Primary().States()
			}
			infos = append(infos, info)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Platform != infos[j].Platform {
			return infos[i].Platform < infos[j].Platform
		}
		return infos[i].App < infos[j].App
	})
	return infos
}

// Stats counts keys, merged policies and device uploads across the
// whole store (for /healthz and /metrics).
func (s *Store) Stats() (keys, merged, uploads int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			keys++
			uploads += len(e.devGen)
			if e.merged != nil {
				merged++
			}
		}
		sh.mu.RUnlock()
	}
	return keys, merged, uploads
}

// DeviceTableBytes sums, over every key, the bytes of the packed
// device rows the store holds for merging (for /metrics).
func (s *Store) DeviceTableBytes() int64 {
	var n int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			n += int64(e.merger.Bytes())
		}
		sh.mu.RUnlock()
	}
	return n
}

// SnapshotKey persists the key's merged table set (if any) under
// dir/<platform>/<app>.qtable.json through core.Store, whose atomic
// temp-file + rename write guarantees concurrent snapshots never leave
// a torn file.
func (s *Store) SnapshotKey(dir string, k Key) error {
	set, _, ok := s.PolicySetRef(k) // SaveSet only reads; immutable published set
	if !ok {
		return nil
	}
	st := core.Store{Dir: filepath.Join(dir, k.Platform)}
	return st.SaveSet(k.App, set, true)
}

// Snapshot persists every merged table and returns how many were
// written.
func (s *Store) Snapshot(dir string) (int, error) {
	n := 0
	for _, info := range s.Infos("") {
		if info.Round == 0 {
			continue
		}
		if err := s.SnapshotKey(dir, info.Key); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// Restore warm-starts the store from a snapshot directory: every
// dir/<platform>/<app>.qtable.json becomes a served policy at round 1.
// Restored policies carry no device uploads — the next merge round
// recomputes from whatever devices upload after the restart. A missing
// directory is a cold start, not an error.
func (s *Store) Restore(dir string) (int, error) {
	platforms, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	n := 0
	for _, p := range platforms {
		if !p.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, p.Name()))
		if err != nil {
			return n, err
		}
		for _, f := range files {
			if f.IsDir() || filepath.Ext(f.Name()) != ".json" {
				continue
			}
			// Rollout lifecycle state lives under SnapshotDir/rollout/
			// in its own format; the rollout manager restores it.
			if strings.HasSuffix(f.Name(), ".rollout.json") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(dir, p.Name(), f.Name()))
			if err != nil {
				return n, err
			}
			app, set, _, err := core.UnmarshalTableSet(data)
			if err != nil {
				return n, fmt.Errorf("fleetd: restoring %s/%s: %w", p.Name(), f.Name(), err)
			}
			k := Key{App: app, Platform: p.Name()}
			// Names restored from disk must honor the same invariant
			// as uploads: a foreign or hand-edited snapshot file with
			// an unsafe embedded app name would otherwise create a
			// policy the API advertises but can never serve — and
			// escape the snapshot dir on the next Snapshot.
			if err := k.validate(); err != nil {
				return n, fmt.Errorf("fleetd: restoring %s/%s: %w", p.Name(), f.Name(), err)
			}
			sh := s.shardFor(k)
			e := newEntry()
			e.merged, e.round = set, 1
			sh.mu.Lock()
			sh.entries[k] = e
			sh.mu.Unlock()
			n++
		}
	}
	return n, nil
}
