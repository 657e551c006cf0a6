package cloud

import (
	"fmt"
	"math"
	"slices"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// Merger is the federated merge: per (role, state, action) cell it
// keeps the exact fixed-point sum Σw·q beside the state's integer
// weight sum Σw, so the merged value — Σw·q / Σw rounded once to the
// nearest float64 — is a function of the current contribution set
// alone, whatever order the contributions arrived or were replaced in.
//
// Merger keeps no per-device state. Update swaps one contribution for
// another: it subtracts the old table's rows and adds the new one's,
// touching only rows whose values or weight changed, and marks those
// states dirty. Merge rounds only the dirty cells and aliases every
// clean state's row from the previous output (published rows are
// immutable). Steps is an exact sum and TrainedUS a maximum over the
// current contributions.
//
// Merger is not safe for concurrent use; callers serialize (fleetd
// holds the shard lock).
type Merger struct {
	learnerName string
	actions     int
	roles       []roleSums
	merged      *learner.TableSet
	// cells counts the (state, action) cells held across roles;
	// maxCells > 0 caps it (see NewBoundedMerger).
	cells, maxCells int
	// changed is Update's reusable list of rows to swap.
	changed []rowChange
}

// roleSums is one role's accumulator state.
type roleSums struct {
	role   string
	states map[core.StateKey]*stateSums
	// dirty marks states whose next Merge must round their cells.
	dirty   map[core.StateKey]struct{}
	steps   int64
	trained maxTracker
}

// stateSums is one state's cells: the exact Σw·q per action, the
// state's weight sum, and how many contributions hold the state.
type stateSums struct {
	sum    []fixed
	weight int64
	n      int
}

// rowChange is one row Update swaps: prow (weight pw) out, row
// (weight w) in. A nil prow is a new row; a nil st a new state.
type rowChange struct {
	role      int
	s         core.StateKey
	st        *stateSums
	prow, row []float64
	pw, w     int64
}

// NewMerger returns an empty merger; the first Update fixes its
// learner, role layout and action count.
func NewMerger() *Merger { return &Merger{} }

// NewBoundedMerger is NewMerger with a memory budget: an Update that
// would make the merger hold more than maxCells (state, action) cells
// across all roles is refused before anything is allocated. Every cell
// costs accWords words even when its values are zero, so a store that
// merges untrusted uploads bounds its memory with this.
func NewBoundedMerger(maxCells int) *Merger { return &Merger{maxCells: maxCells} }

// effectiveWeight is the per-contribution merge weight of a state: the
// visit count, floored at 1 for states seen but unweighted.
func effectiveWeight(t *core.QTable, s core.StateKey) int64 {
	if w := t.Visits[s]; w > 0 {
		return int64(w)
	}
	return 1
}

// Update replaces the contribution prev with next (prev nil: a new
// contributor). prev must be a set an earlier Update added and that
// has not been replaced since. Every Q-value must be below MaxAbsQ in
// magnitude and each state's weight sum must fit an int; fleetd's
// upload sanitizing guarantees both. On error the merger is unchanged.
func (m *Merger) Update(prev, next *learner.TableSet) error {
	if err := m.checkLayout(next); err != nil {
		return err
	}
	// Validate and collect every changed row before touching a sum, so
	// an error leaves the merger as it was.
	m.changed = m.changed[:0]
	added := 0 // cells that new states would allocate
	for r, rt := range next.Roles {
		nt := rt.Table
		var pt *core.QTable
		if prev != nil {
			pt = prev.Roles[r].Table
		}
		for s, row := range nt.Q {
			c := rowChange{role: r, s: s, row: row, w: effectiveWeight(nt, s)}
			if pt != nil {
				if prow, ok := pt.Q[s]; ok {
					c.prow, c.pw = prow, effectiveWeight(pt, s)
					if c.pw == c.w && slices.Equal(prow, row) {
						continue
					}
				}
			}
			if len(row) != nt.Actions {
				return fmt.Errorf("cloud: state %d has %d action values, want %d", s, len(row), nt.Actions)
			}
			for _, v := range row {
				if !(math.Abs(v) < MaxAbsQ) { // also refuses NaN
					return fmt.Errorf("cloud: state %d holds Q-value %v, outside ±%g", s, v, MaxAbsQ)
				}
			}
			var have int64
			if r < len(m.roles) {
				if c.st = m.roles[r].states[c.s]; c.st != nil {
					have = c.st.weight - c.pw
				}
			}
			if c.w > math.MaxInt-have {
				return fmt.Errorf("cloud: state %d: merge weight overflows int", s)
			}
			if c.st == nil && m.maxCells > 0 {
				// Checked per state, so the count never overflows.
				if added += nt.Actions; added > m.maxCells-m.cells {
					return fmt.Errorf("cloud: merge would hold more than %d cells (%d held)", m.maxCells, m.cells)
				}
			}
			m.changed = append(m.changed, c)
		}
	}
	if m.roles == nil {
		m.adoptLayout(next)
	}

	for _, c := range m.changed {
		rs := &m.roles[c.role]
		st := c.st
		if st == nil {
			st = &stateSums{sum: make([]fixed, m.actions)}
			rs.states[c.s] = st
			m.cells += m.actions
		}
		if c.prow != nil {
			st.addRow(c.prow, -c.pw)
			st.n--
		}
		st.addRow(c.row, c.w)
		st.n++
		rs.dirty[c.s] = struct{}{}
	}
	for r := range m.roles {
		rs := &m.roles[r]
		nt := next.Roles[r].Table
		if prev == nil {
			rs.steps += nt.Steps
			rs.trained.add(nt.TrainedUS)
			continue
		}
		pt := prev.Roles[r].Table
		// States the contributor dropped.
		for s, prow := range pt.Q {
			if _, still := nt.Q[s]; still {
				continue
			}
			st := rs.states[s]
			st.addRow(prow, -effectiveWeight(pt, s))
			st.n--
			rs.dirty[s] = struct{}{}
		}
		rs.steps += nt.Steps - pt.Steps
		if nt.TrainedUS != pt.TrainedUS {
			rs.trained.remove(pt.TrainedUS)
			rs.trained.add(nt.TrainedUS)
		}
	}
	return nil
}

// addRow adds w times row to the state's cells and weight.
func (st *stateSums) addRow(row []float64, w int64) {
	for a, v := range row {
		st.sum[a].add(v, w)
	}
	st.weight += w
}

// checkLayout rejects a set the learner registry does not accept, or
// whose learner or action count differs from the merger's (the
// registry pins the role layout to the learner name).
func (m *Merger) checkLayout(set *learner.TableSet) error {
	if err := learner.ValidateSet(set); err != nil {
		return fmt.Errorf("cloud: %w", err)
	}
	name, actions := learner.Normalize(set.Learner), set.Primary().Actions
	if m.roles != nil && (name != m.learnerName || actions != m.actions) {
		return fmt.Errorf("cloud: set is %s with %d actions, merge has %s with %d",
			name, actions, m.learnerName, m.actions)
	}
	return nil
}

func (m *Merger) adoptLayout(set *learner.TableSet) {
	m.learnerName = learner.Normalize(set.Learner)
	m.actions = set.Primary().Actions
	m.roles = make([]roleSums, len(set.Roles))
	for i, r := range set.Roles {
		m.roles[i] = roleSums{
			role:   r.Role,
			states: make(map[core.StateKey]*stateSums),
			dirty:  make(map[core.StateKey]struct{}),
		}
	}
}

// Merge returns the merged set for the current contributions: each
// dirty cell rounded to the nearest float64 of Σw·q / Σw, every clean
// state's row aliased from the previous output, and states no
// contribution holds any more dropped. The returned set is freshly
// allocated (shared rows are immutable). Merge returns nil before the
// first Update.
func (m *Merger) Merge() *learner.TableSet {
	if m.roles == nil {
		return nil
	}
	out := &learner.TableSet{Learner: m.learnerName, Roles: make([]learner.RoleTable, len(m.roles))}
	for r := range m.roles {
		rs := &m.roles[r]
		var prev *core.QTable
		if m.merged != nil {
			prev = m.merged.Roles[r].Table
		}
		nt := &core.QTable{
			Actions: m.actions,
			Q:       make(map[core.StateKey][]float64, len(rs.states)),
			Visits:  make(map[core.StateKey]int, len(rs.states)),
			Steps:   rs.steps,
		}
		for s, st := range rs.states {
			if st.n == 0 {
				delete(rs.states, s) // every contributor dropped it
				m.cells -= m.actions
				continue
			}
			if _, dirty := rs.dirty[s]; dirty || prev == nil {
				row := make([]float64, m.actions)
				for a := range row {
					row[a] = st.sum[a].quo(st.weight)
				}
				nt.Q[s] = row
			} else {
				nt.Q[s] = prev.Q[s]
			}
			nt.Visits[s] = int(st.weight)
		}
		nt.TrainedUS = rs.trained.max()
		out.Roles[r] = learner.RoleTable{Role: rs.role, Table: nt}
		clear(rs.dirty)
	}
	m.merged = out
	return out
}

// maxTracker is the maximum of a multiset of int64 values (floored at
// 0) under insert and remove. Removing the current maximum only marks
// it stale; a later insert at or above it, or the next read, settles
// it — so a contributor whose value only grows never forces a rescan.
type maxTracker struct {
	count map[int64]int
	top   int64
	stale bool
}

func (t *maxTracker) add(v int64) {
	if t.count == nil {
		t.count = make(map[int64]int)
	}
	t.count[v]++
	if v >= t.top {
		t.top, t.stale = v, false
	}
}

func (t *maxTracker) remove(v int64) {
	if t.count[v]--; t.count[v] > 0 {
		return
	}
	delete(t.count, v)
	if v == t.top {
		t.stale = true
	}
}

func (t *maxTracker) max() int64 {
	if t.stale {
		t.top, t.stale = 0, false
		for v := range t.count {
			if v > t.top {
				t.top = v
			}
		}
	}
	return t.top
}
