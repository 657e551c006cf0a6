package learner

import (
	"fmt"
	"math/bits"
	"slices"
)

// PackedSet is the at-rest form of a TableSet: per role, the row states
// sorted ascending with their action values back to back in one flat
// slice, and the visited states sorted ascending beside their counts —
// the two-section layout the NXTB codec writes. Every backing array is
// pointer-free, so a store holding thousands of device tables gives the
// garbage collector a handful of pointers per device instead of a map
// entry and a slice per state, and a role costs at most three
// allocations (keys, rows, visit counts).
//
// A PackedSet is a deep copy: packing never aliases the source set's
// rows, and Repack and Patch overwrite the set's own arrays in place
// whenever the new table fits them.
type PackedSet struct {
	Learner string
	Roles   []PackedTable
}

// PackedTable is one role of a PackedSet.
type PackedTable struct {
	Role    string
	Actions int
	// keys holds the row states (keys[:nrows]) and then the visited
	// states (keys[nrows:nrows+len(visits)]), each section ascending.
	keys   []StateKey
	nrows  int
	rows   []float64
	visits []int

	Steps, TrainedUS, ConvergedAtUS int64
}

// Pack returns a packed deep copy of set. It fails when the set has no
// primary table or a row's length differs from its role's action count.
func Pack(set *TableSet) (*PackedSet, error) {
	p := &PackedSet{}
	if err := p.Repack(set); err != nil {
		return nil, err
	}
	return p, nil
}

// Repack overwrites p with a packed copy of set, reusing p's arrays
// where they are large enough (they never shrink, so a table that keeps
// its shape repacks without allocating). On error p is unchanged.
func (p *PackedSet) Repack(set *TableSet) error {
	if err := checkPackable(set); err != nil {
		return err
	}
	if len(p.Roles) != len(set.Roles) {
		p.Roles = make([]PackedTable, len(set.Roles))
	}
	p.Learner = set.Learner
	for i, r := range set.Roles {
		p.Roles[i].pack(r.Role, r.Table)
	}
	return nil
}

func checkPackable(set *TableSet) error {
	if set == nil || set.Primary() == nil {
		return fmt.Errorf("learner: empty table set")
	}
	for _, r := range set.Roles {
		if r.Table == nil {
			return fmt.Errorf("learner: role %q has no table", r.Role)
		}
		for s, row := range r.Table.Q {
			if len(row) != r.Table.Actions {
				return fmt.Errorf("learner: role %q state %d has %d action values, want %d",
					r.Role, s, len(row), r.Table.Actions)
			}
		}
	}
	return nil
}

// fit returns buf resized to n, reusing its array when it is large
// enough.
func fit[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

func (pt *PackedTable) pack(role string, t *QTable) {
	nr, nv, a := len(t.Q), len(t.Visits), t.Actions
	keys := fit(pt.keys, nr+nv)
	rows := fit(pt.rows, nr*a)
	visits := fit(pt.visits, nv)
	// A table re-packed with the same states (the steady state of a
	// device re-uploading) keeps its sorted key sections: with equal
	// counts, finding every old key in the map proves the sets equal.
	// The hint is checked while the rows and counts are copied.
	hint := cap(pt.keys) >= nr+nv && pt.nrows == nr && len(pt.visits) == nv
	sameRows := hint
	if sameRows {
		for i, s := range keys[:nr] {
			row, ok := t.Q[s]
			if !ok {
				sameRows = false
				break
			}
			copy(rows[i*a:(i+1)*a], row)
		}
	}
	if !sameRows {
		i := 0
		for s := range t.Q {
			keys[i] = s
			i++
		}
		slices.Sort(keys[:nr])
		for i, s := range keys[:nr] {
			copy(rows[i*a:(i+1)*a], t.Q[s])
		}
	}
	sameVisits := hint
	if sameVisits {
		for i, s := range keys[nr:] {
			v, ok := t.Visits[s]
			if !ok {
				sameVisits = false
				break
			}
			visits[i] = v
		}
	}
	if !sameVisits {
		i := nr
		for s := range t.Visits {
			keys[i] = s
			i++
		}
		slices.Sort(keys[nr:])
		for i, s := range keys[nr:] {
			visits[i] = t.Visits[s]
		}
	}
	*pt = PackedTable{
		Role: role, Actions: a,
		keys: keys, nrows: nr, rows: rows, visits: visits,
		Steps: t.Steps, TrainedUS: t.TrainedUS, ConvergedAtUS: t.ConvergedAtUS,
	}
}

// Len returns how many states hold a row.
func (pt *PackedTable) Len() int { return pt.nrows }

// RowKeys returns the row states in ascending order. The slice is the
// table's own; callers must not modify it.
func (pt *PackedTable) RowKeys() []StateKey { return pt.keys[:pt.nrows:pt.nrows] }

// Row returns the action values of the i-th row state. The slice is
// the table's own; callers must not modify it.
func (pt *PackedTable) Row(i int) []float64 {
	return pt.rows[i*pt.Actions : (i+1)*pt.Actions : (i+1)*pt.Actions]
}

// Find returns the index of s among the row states.
func (pt *PackedTable) Find(s StateKey) (int, bool) {
	return slices.BinarySearch(pt.keys[:pt.nrows], s)
}

// VisitKeys returns the states with a visit count in ascending order.
// The slice is the table's own; callers must not modify it.
func (pt *PackedTable) VisitKeys() []StateKey {
	return pt.keys[pt.nrows : pt.nrows+len(pt.visits) : pt.nrows+len(pt.visits)]
}

// Visit returns the visit count of s and whether the table holds one.
func (pt *PackedTable) Visit(s StateKey) (int, bool) {
	if i, ok := slices.BinarySearch(pt.VisitKeys(), s); ok {
		return pt.visits[i], true
	}
	return 0, false
}

// Bytes returns the size of the set's backing arrays.
func (p *PackedSet) Bytes() int {
	n := 0
	for i := range p.Roles {
		pt := &p.Roles[i]
		n += 8*cap(pt.keys) + 8*cap(pt.rows) + bits.UintSize/8*cap(pt.visits)
	}
	return n
}

// Unpack returns the set as map-based tables. Rows are copied (into
// one backing array per role), never aliased.
func (p *PackedSet) Unpack() *TableSet {
	set := &TableSet{Learner: p.Learner, Roles: make([]RoleTable, len(p.Roles))}
	for i := range p.Roles {
		pt := &p.Roles[i]
		t := &QTable{
			Actions:       pt.Actions,
			Q:             make(map[StateKey][]float64, pt.nrows),
			Visits:        make(map[StateKey]int, len(pt.visits)),
			Steps:         pt.Steps,
			TrainedUS:     pt.TrainedUS,
			ConvergedAtUS: pt.ConvergedAtUS,
		}
		rows := slices.Clone(pt.rows[:pt.nrows*pt.Actions])
		for j, s := range pt.RowKeys() {
			t.Q[s] = rows[j*pt.Actions : (j+1)*pt.Actions : (j+1)*pt.Actions]
		}
		for j, s := range pt.VisitKeys() {
			t.Visits[s] = pt.visits[j]
		}
		set.Roles[i] = RoleTable{Role: pt.Role, Table: t}
	}
	return set
}

// Patch overlays a delta on p role by role — the delta-upload
// semantics: the delta's rows and visit counts replace p's (or join it,
// for states p lacks), everything else carries over, and each role's
// Steps, TrainedUS and ConvergedAtUS become the delta's. A delta that
// only touches states p already holds is written in place; one that
// adds states rebuilds the role's arrays. On error (role count, action
// count or row length mismatch) p is unchanged.
func (p *PackedSet) Patch(delta *TableSet) error {
	if err := checkPackable(delta); err != nil {
		return err
	}
	if len(delta.Roles) != len(p.Roles) {
		return fmt.Errorf("learner: delta has %d roles, base has %d", len(delta.Roles), len(p.Roles))
	}
	for i, r := range delta.Roles {
		if r.Table.Actions != p.Roles[i].Actions {
			return fmt.Errorf("learner: delta role %q has %d actions, base has %d",
				r.Role, r.Table.Actions, p.Roles[i].Actions)
		}
	}
	for i, r := range delta.Roles {
		p.Roles[i].patch(r.Table)
	}
	return nil
}

func (pt *PackedTable) patch(dt *QTable) {
	grows := false
	for s := range dt.Q {
		if _, ok := pt.Find(s); !ok {
			grows = true
			break
		}
	}
	if !grows {
		for s := range dt.Visits {
			if _, ok := pt.Visit(s); !ok {
				grows = true
				break
			}
		}
	}
	if grows {
		pt.rebuild(dt)
	} else {
		for s, row := range dt.Q {
			i, _ := pt.Find(s)
			copy(pt.Row(i), row)
		}
		vkeys := pt.VisitKeys()
		for s, v := range dt.Visits {
			i, _ := slices.BinarySearch(vkeys, s)
			pt.visits[i] = v
		}
	}
	pt.Steps, pt.TrainedUS, pt.ConvergedAtUS = dt.Steps, dt.TrainedUS, dt.ConvergedAtUS
}

// rebuild is patch for a delta that adds states: the union of both
// key sets goes into fresh arrays.
func (pt *PackedTable) rebuild(dt *QTable) {
	rowKeys, visitKeys := pt.RowKeys(), pt.VisitKeys()
	var newRows, newVisits []StateKey
	for s := range dt.Q {
		if _, ok := pt.Find(s); !ok {
			newRows = append(newRows, s)
		}
	}
	for s := range dt.Visits {
		if _, ok := pt.Visit(s); !ok {
			newVisits = append(newVisits, s)
		}
	}
	nr, nv := len(rowKeys)+len(newRows), len(visitKeys)+len(newVisits)
	keys := make([]StateKey, 0, nr+nv)
	keys = append(append(keys, rowKeys...), newRows...)
	keys = append(append(keys, visitKeys...), newVisits...)
	slices.Sort(keys[:nr])
	vk := keys[nr:]
	slices.Sort(vk)

	a := pt.Actions
	rows := make([]float64, nr*a)
	for i, s := range keys[:nr] {
		row, ok := dt.Q[s]
		if !ok {
			j, _ := pt.Find(s)
			row = pt.Row(j)
		}
		copy(rows[i*a:(i+1)*a], row)
	}
	visits := make([]int, nv)
	for i, s := range vk {
		v, ok := dt.Visits[s]
		if !ok {
			v, _ = pt.Visit(s)
		}
		visits[i] = v
	}
	pt.keys, pt.nrows, pt.rows, pt.visits = keys, nr, rows, visits
}
