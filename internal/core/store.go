package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"nextdvfs/internal/learner"
)

// roleDTO is one auxiliary role table on the wire (the second Double-Q
// estimator). Metadata (Steps, TrainedUS, …) lives on the primary.
type roleDTO struct {
	Q      map[string][]float64 `json:"q"`
	Visits map[string]int       `json:"visits"`
}

// tableDTO is the JSON wire format for a persisted learner table set.
// Map keys are stringified state keys (JSON requires string keys). The
// primary table occupies the historical top-level fields, so a
// single-table watkins snapshot is byte-identical to the pre-registry
// format and old files load unchanged; multi-table learners carry
// their extra estimators under "aux" keyed by role, with the learner's
// registry name in "learner".
type tableDTO struct {
	App           string               `json:"app"`
	Actions       int                  `json:"actions"`
	Steps         int64                `json:"steps"`
	TrainedUS     int64                `json:"trained_us"`
	ConvergedAtUS int64                `json:"converged_at_us"`
	Trained       bool                 `json:"trained"`
	Q             map[string][]float64 `json:"q"`
	Visits        map[string]int       `json:"visits"`
	Learner       string               `json:"learner,omitempty"`
	Aux           map[string]roleDTO   `json:"aux,omitempty"`
}

// MarshalTable serializes a single-table policy for storage ("the
// Q-table results are stored on the memory so that later ... the agent
// is able to refer to the Q-table").
func MarshalTable(app string, t *QTable, trained bool) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("core: nil table for %q", app)
	}
	return MarshalTableSet(app, learner.SingleTableSet(t), trained)
}

// MarshalTableCompact is MarshalTable without indentation — the wire
// format for network transfer (fleetd uploads), where nobody reads the
// JSON and the whitespace is pure parse and transfer cost. Both forms
// unmarshal identically.
func MarshalTableCompact(app string, t *QTable, trained bool) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("core: nil table for %q", app)
	}
	return MarshalTableSetCompact(app, learner.SingleTableSet(t), trained)
}

// MarshalTableSet serializes a learner's complete table state.
func MarshalTableSet(app string, set *TableSet, trained bool) ([]byte, error) {
	dto, err := setToDTO(app, set, trained)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(dto, "", " ")
}

// MarshalTableSetCompact is MarshalTableSet without indentation.
func MarshalTableSetCompact(app string, set *TableSet, trained bool) ([]byte, error) {
	dto, err := setToDTO(app, set, trained)
	if err != nil {
		return nil, err
	}
	return json.Marshal(dto)
}

func setToDTO(app string, set *TableSet, trained bool) (*tableDTO, error) {
	if set == nil || set.Primary() == nil {
		return nil, fmt.Errorf("core: nil table set for %q", app)
	}
	t := set.Primary()
	dto := tableDTO{
		App:           app,
		Actions:       t.Actions,
		Steps:         t.Steps,
		TrainedUS:     t.TrainedUS,
		ConvergedAtUS: t.ConvergedAtUS,
		Trained:       trained,
		Q:             tableToWire(t),
		Visits:        visitsToWire(t),
	}
	// The default learner stays implicit so watkins snapshots remain
	// byte-identical to the historical single-table format.
	if name := learner.Normalize(set.Learner); name != learner.DefaultLearner {
		dto.Learner = name
	}
	for _, r := range set.Roles[1:] {
		if r.Table.Actions != t.Actions {
			return nil, fmt.Errorf("core: role %q of %q has %d actions, primary has %d",
				r.Role, app, r.Table.Actions, t.Actions)
		}
		if dto.Aux == nil {
			dto.Aux = make(map[string]roleDTO, len(set.Roles)-1)
		}
		if _, dup := dto.Aux[r.Role]; dup || r.Role == "" {
			return nil, fmt.Errorf("core: bad role %q in table set for %q", r.Role, app)
		}
		dto.Aux[r.Role] = roleDTO{Q: tableToWire(r.Table), Visits: visitsToWire(r.Table)}
	}
	return &dto, nil
}

func tableToWire(t *QTable) map[string][]float64 {
	m := make(map[string][]float64, len(t.Q))
	for k, v := range t.Q {
		m[strconv.FormatUint(uint64(k), 10)] = v
	}
	return m
}

func visitsToWire(t *QTable) map[string]int {
	m := make(map[string]int, len(t.Visits))
	for k, v := range t.Visits {
		m[strconv.FormatUint(uint64(k), 10)] = v
	}
	return m
}

func wireToTable(actions int, q map[string][]float64, visits map[string]int) (*QTable, error) {
	t := NewQTable(actions)
	for k, v := range q {
		key, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad state key %q: %w", k, err)
		}
		if len(v) != actions {
			return nil, fmt.Errorf("core: state %q has %d action values, want %d", k, len(v), actions)
		}
		t.Q[StateKey(key)] = v
	}
	for k, v := range visits {
		key, err := strconv.ParseUint(k, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("core: bad visit key %q: %w", k, err)
		}
		t.Visits[StateKey(key)] = v
	}
	return t, nil
}

// UnmarshalTable parses a persisted table, returning the primary table
// only (multi-table sets collapse to their primary — the policy view).
func UnmarshalTable(data []byte) (app string, t *QTable, trained bool, err error) {
	app, set, trained, err := UnmarshalTableSet(data)
	if err != nil {
		return "", nil, false, err
	}
	return app, set.Primary(), trained, nil
}

// UnmarshalTableSet parses a persisted learner table set. Legacy
// single-table files (no "learner"/"aux" fields) come back as
// single-role watkins sets.
func UnmarshalTableSet(data []byte) (app string, set *TableSet, trained bool, err error) {
	var dto tableDTO
	if err = json.Unmarshal(data, &dto); err != nil {
		return "", nil, false, err
	}
	if dto.Actions <= 0 || dto.Actions > maxActions {
		return "", nil, false, fmt.Errorf("core: table for %q has invalid action count %d", dto.App, dto.Actions)
	}
	primary, err := wireToTable(dto.Actions, dto.Q, dto.Visits)
	if err != nil {
		return "", nil, false, err
	}
	primary.Steps = dto.Steps
	primary.TrainedUS = dto.TrainedUS
	primary.ConvergedAtUS = dto.ConvergedAtUS

	name := learner.Normalize(dto.Learner)
	set = &TableSet{Learner: name, Roles: []RoleTable{{Role: learner.PrimaryRole(name), Table: primary}}}
	for _, role := range sortedRoles(dto.Aux) {
		aux, err := wireToTable(dto.Actions, dto.Aux[role].Q, dto.Aux[role].Visits)
		if err != nil {
			return "", nil, false, fmt.Errorf("core: role %q of %q: %w", role, dto.App, err)
		}
		set.Roles = append(set.Roles, RoleTable{Role: role, Table: aux})
	}
	// Snapshot files and uploads are untrusted: an unknown learner name
	// or a role layout that doesn't match the named learner fails here,
	// not as a silently dropped estimator downstream.
	if err := learner.ValidateSet(set); err != nil {
		return "", nil, false, fmt.Errorf("core: table set for %q: %w", dto.App, err)
	}
	return dto.App, set, dto.Trained, nil
}

// sortedRoles orders aux-role names so set reconstruction (and
// everything downstream: merges, re-marshals) is deterministic.
func sortedRoles(aux map[string]roleDTO) []string {
	roles := make([]string, 0, len(aux))
	for r := range aux {
		roles = append(roles, r)
	}
	sort.Strings(roles)
	return roles
}

// Store persists learner table sets under a directory, one JSON file
// per app.
type Store struct{ Dir string }

// path returns the file for an app, sanitized to a flat name.
func (s Store) path(app string) string {
	return filepath.Join(s.Dir, app+".qtable.json")
}

// Save writes the app's table atomically: the JSON goes to a temp file
// in the same directory and is renamed into place, so a reader (or a
// concurrent snapshotter, as in fleetd) can never observe a torn
// *.qtable.json. The temp name does not end in .json, so directory
// scans like LoadAgent skip in-flight writes.
func (s Store) Save(app string, t *QTable, trained bool) error {
	if t == nil {
		return fmt.Errorf("core: nil table for %q", app)
	}
	return s.SaveSet(app, learner.SingleTableSet(t), trained)
}

// SaveSet is Save for a learner's complete table state (both Double-Q
// estimators survive the round trip).
func (s Store) SaveSet(app string, set *TableSet, trained bool) error {
	data, err := MarshalTableSet(app, set, trained)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(s.Dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(s.Dir, app+".qtable.*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.path(app)); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Load reads the app's primary table; os.IsNotExist(err) distinguishes
// "never trained" from corruption.
func (s Store) Load(app string) (*QTable, bool, error) {
	set, trained, err := s.LoadSet(app)
	if err != nil {
		return nil, false, err
	}
	return set.Primary(), trained, nil
}

// LoadSet reads the app's complete learner table set.
func (s Store) LoadSet(app string) (*TableSet, bool, error) {
	data, err := os.ReadFile(s.path(app))
	if err != nil {
		return nil, false, err
	}
	_, set, trained, err := UnmarshalTableSet(data)
	return set, trained, err
}

// SaveAgent persists every learner table set the agent holds.
func (s Store) SaveAgent(a *Agent) error {
	for _, app := range a.Apps() {
		set := a.SnapshotFor(app)
		if set == nil || set.Primary() == nil {
			continue
		}
		t := a.TableFor(app)
		if err := s.SaveSet(app, set, t.Trained); err != nil {
			return fmt.Errorf("core: saving %q: %w", app, err)
		}
	}
	return nil
}

// LoadAgent installs every stored table set into the agent.
func (s Store) LoadAgent(a *Agent) error {
	entries, err := os.ReadDir(s.Dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.Dir, e.Name()))
		if err != nil {
			return err
		}
		app, set, trained, err := UnmarshalTableSet(data)
		if err != nil {
			return fmt.Errorf("core: loading %q: %w", e.Name(), err)
		}
		a.InstallTableSet(app, set, trained)
	}
	return nil
}
