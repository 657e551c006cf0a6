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
// Merger owns each contributor's current rows, keyed by device and
// packed (learner.PackedSet: sorted keys and one flat, pointer-free row
// slice per role). Upload replaces a device's whole table and Patch
// overlays a delta on it; either subtracts the device's old rows and
// adds its new ones, touching only rows whose values or weight changed,
// and marks those states dirty. Merge rounds only the dirty cells and
// aliases every clean state's row from the previous output (published
// rows are immutable). Steps is an exact sum and TrainedUS a maximum
// over the current contributions.
//
// Merger is not safe for concurrent use; callers serialize (fleetd
// holds the shard lock).
type Merger struct {
	learnerName string
	actions     int
	roles       []roleSums
	merged      *learner.TableSet
	// devices holds each contributor's rows; bytes is the size of their
	// backing arrays.
	devices map[string]*learner.PackedSet
	bytes   int
	// cells counts the (state, action) cells held across roles;
	// maxCells > 0 caps it (see NewBoundedMerger).
	cells, maxCells int
	// changed is the reusable list of rows an upload swaps; spare is a
	// packed set Upload packs into before it becomes a device's rows.
	changed []rowChange
	spare   *learner.PackedSet
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

// rowChange is one row an upload swaps: prow (weight pw) out, row
// (weight w) in. A nil prow is a new row, a nil row a dropped one, and
// a nil st a new state.
type rowChange struct {
	role      int
	s         core.StateKey
	st        *stateSums
	prow, row []float64
	pw, w     int64
}

// NewMerger returns an empty merger; the first upload fixes its
// learner, role layout and action count.
func NewMerger() *Merger { return NewBoundedMerger(0) }

// NewBoundedMerger is NewMerger with a memory budget: an upload that
// would make the merger hold more than maxCells (state, action) cells
// across all roles is refused before anything is allocated. Every cell
// costs accWords words even when its values are zero, so a store that
// merges untrusted uploads bounds its memory with this.
func NewBoundedMerger(maxCells int) *Merger {
	return &Merger{maxCells: maxCells, devices: make(map[string]*learner.PackedSet)}
}

// weightOf is the per-contribution merge weight of a state given its
// visit count (ok=false: none): the count, floored at 1 for states
// seen but unweighted.
func weightOf(visits int, ok bool) int64 {
	if ok && visits > 0 {
		return int64(visits)
	}
	return 1
}

// packedWeight is the merge weight of a state in a packed table.
func packedWeight(pt *learner.PackedTable, s core.StateKey) int64 {
	return weightOf(pt.Visit(s))
}

// Layout returns the merger's learner (normalized) and action count,
// ok=false before the first upload fixes them.
func (m *Merger) Layout() (learnerName string, actions int, ok bool) {
	return m.learnerName, m.actions, m.roles != nil
}

// Bytes returns the size of the contributors' packed rows.
func (m *Merger) Bytes() int { return m.bytes }

// Upload replaces device's contribution with set (a new device joins).
// Every Q-value must be below MaxAbsQ in magnitude and each state's
// weight sum must fit an int; fleetd's upload sanitizing guarantees
// both. The merger keeps a packed copy of set, never set itself. On
// error the merger is unchanged.
func (m *Merger) Upload(device string, set *learner.TableSet) error {
	if err := m.checkLayout(set); err != nil {
		return err
	}
	// Pack into the spare set, then walk the old and new rows in key
	// order. Every changed row is validated and collected before a sum
	// moves, so an error leaves the merger as it was.
	next := m.spare
	m.spare = nil // on error the packed upload is dropped
	if next == nil {
		next = &learner.PackedSet{}
	}
	if err := next.Repack(set); err != nil {
		return fmt.Errorf("cloud: %w", err)
	}
	prev := m.devices[device]
	m.changed = m.changed[:0]
	added := 0 // cells that new states would allocate
	for r := range next.Roles {
		nt := &next.Roles[r]
		var pt *learner.PackedTable
		if prev != nil {
			pt = &prev.Roles[r]
		}
		j := 0 // the walk's position in the stored rows
		for i, s := range nt.RowKeys() {
			c := rowChange{role: r, s: s, row: nt.Row(i), w: packedWeight(nt, s)}
			if pt != nil {
				for ; j < pt.Len() && pt.RowKeys()[j] < s; j++ {
					m.dropRow(r, pt, j) // the device dropped this state
				}
				if j < pt.Len() && pt.RowKeys()[j] == s {
					c.prow, c.pw = pt.Row(j), packedWeight(pt, s)
					j++
					if c.pw == c.w && slices.Equal(c.prow, c.row) {
						continue
					}
				}
			}
			if err := m.admit(&c, nt.Actions, &added); err != nil {
				return err
			}
		}
		for ; pt != nil && j < pt.Len(); j++ {
			m.dropRow(r, pt, j)
		}
	}
	if m.roles == nil {
		m.adoptLayout(set)
	}
	m.applyChanges()
	for r := range m.roles {
		rs, nt := &m.roles[r], &next.Roles[r]
		if prev == nil {
			rs.steps += nt.Steps
			rs.trained.add(nt.TrainedUS)
		} else {
			rs.swapMeta(&prev.Roles[r], nt.Steps, nt.TrainedUS)
		}
	}
	// The device keeps the new arrays; its old ones become the spare.
	m.devices[device], m.spare = next, prev
	m.bytes += next.Bytes()
	if prev != nil {
		m.bytes -= prev.Bytes()
	}
	return nil
}

// dropRow queues the removal of the j-th stored row of role r.
func (m *Merger) dropRow(r int, pt *learner.PackedTable, j int) {
	s := pt.RowKeys()[j]
	m.changed = append(m.changed, rowChange{
		role: r, s: s, st: m.roles[r].states[s], prow: pt.Row(j), pw: packedWeight(pt, s),
	})
}

// Patch overlays delta on device's stored rows — the delta-upload
// semantics of learner.PackedSet.Patch: the delta's rows and visit
// counts replace the device's, states it omits carry over, and each
// role's metadata becomes the delta's. The same value bounds as Upload
// apply. The whole delta is validated before any sum or stored row
// changes, so on error the merger is unchanged.
func (m *Merger) Patch(device string, delta *learner.TableSet) error {
	prev := m.devices[device]
	if prev == nil {
		return fmt.Errorf("cloud: no stored rows for device %q to patch", device)
	}
	if err := m.checkLayout(delta); err != nil {
		return err
	}
	m.changed = m.changed[:0]
	added := 0
	for r, rt := range delta.Roles {
		dt, pt := rt.Table, &prev.Roles[r]
		for s, row := range dt.Q {
			v, ok := dt.Visits[s]
			if !ok {
				v, ok = pt.Visit(s)
			}
			c := rowChange{role: r, s: s, row: row, w: weightOf(v, ok)}
			if i, ok := pt.Find(s); ok {
				c.prow, c.pw = pt.Row(i), packedWeight(pt, s)
				if c.pw == c.w && slices.Equal(c.prow, row) {
					continue
				}
			}
			if err := m.admit(&c, m.actions, &added); err != nil {
				return err
			}
		}
		// A visit count alone reweights the stored row of its state
		// (states without a row are merge-inert).
		for s, v := range dt.Visits {
			if _, sent := dt.Q[s]; sent {
				continue
			}
			i, ok := pt.Find(s)
			if !ok {
				continue
			}
			c := rowChange{role: r, s: s, prow: pt.Row(i), pw: packedWeight(pt, s), w: weightOf(v, true)}
			if c.pw == c.w {
				continue
			}
			c.row = c.prow
			if err := m.admit(&c, m.actions, &added); err != nil {
				return err
			}
		}
	}
	m.applyChanges()
	for r := range m.roles {
		dt := delta.Roles[r].Table
		m.roles[r].swapMeta(&prev.Roles[r], dt.Steps, dt.TrainedUS)
	}
	before := prev.Bytes()
	if err := prev.Patch(delta); err != nil {
		panic(fmt.Sprintf("cloud: patching a validated delta: %v", err))
	}
	m.bytes += prev.Bytes() - before
	return nil
}

// admit validates one changed row and queues it: the row must have the
// merger's action count and in-range values, the state's weight sum
// must stay within int, and a new state must fit the cell budget
// (added counts the cells this upload's new states take so far).
// actions is the uploaded set's action count, which checkLayout has
// matched to the merger's.
func (m *Merger) admit(c *rowChange, actions int, added *int) error {
	if len(c.row) != actions {
		return fmt.Errorf("cloud: state %d has %d action values, want %d", c.s, len(c.row), actions)
	}
	for _, v := range c.row {
		if !(math.Abs(v) < MaxAbsQ) { // also refuses NaN
			return fmt.Errorf("cloud: state %d holds Q-value %v, outside ±%g", c.s, v, MaxAbsQ)
		}
	}
	var have int64
	if c.role < len(m.roles) {
		if c.st = m.roles[c.role].states[c.s]; c.st != nil {
			have = c.st.weight - c.pw
		}
	}
	if c.w > math.MaxInt-have {
		return fmt.Errorf("cloud: state %d: merge weight overflows int", c.s)
	}
	if c.st == nil && m.maxCells > 0 {
		// Checked per state, so the count never overflows.
		if *added += actions; *added > m.maxCells-m.cells {
			return fmt.Errorf("cloud: merge would hold more than %d cells (%d held)", m.maxCells, m.cells)
		}
	}
	m.changed = append(m.changed, *c)
	return nil
}

// applyChanges swaps every queued row into the sums.
func (m *Merger) applyChanges() {
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
		if c.row != nil {
			st.addRow(c.row, c.w)
			st.n++
		}
		rs.dirty[c.s] = struct{}{}
	}
}

// swapMeta replaces a contributor's bookkeeping (stored in pt) with
// its new Steps and TrainedUS.
func (rs *roleSums) swapMeta(pt *learner.PackedTable, steps, trainedUS int64) {
	rs.steps += steps - pt.Steps
	if trainedUS != pt.TrainedUS {
		rs.trained.remove(pt.TrainedUS)
		rs.trained.add(trainedUS)
	}
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
// first upload.
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
