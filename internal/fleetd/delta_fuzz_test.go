package fleetd

import (
	"math"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// diffTableSet is the map-based reference for diffPacked (the diff the
// uploader ran before its base was packed): a set carrying only the
// states of next whose row or visit count differs from prev, with each
// role's metadata absolute. ok is false when the diff cannot be
// expressed as an overlay: layout changed, or next dropped a state or
// visit count prev had.
func diffTableSet(prev, next *core.TableSet) (*core.TableSet, bool) {
	if prev == nil || next == nil || len(prev.Roles) != len(next.Roles) ||
		learner.Normalize(prev.Learner) != learner.Normalize(next.Learner) {
		return nil, false
	}
	delta := &core.TableSet{Learner: next.Learner, Roles: make([]learner.RoleTable, len(next.Roles))}
	for i, r := range next.Roles {
		p := prev.Roles[i]
		if p.Role != r.Role || p.Table == nil || r.Table == nil || p.Table.Actions != r.Table.Actions {
			return nil, false
		}
		for s := range p.Table.Q {
			if _, still := r.Table.Q[s]; !still {
				return nil, false
			}
		}
		for s := range p.Table.Visits {
			if _, still := r.Table.Visits[s]; !still {
				return nil, false
			}
		}
		dt := core.NewQTable(r.Table.Actions)
		dt.Steps = r.Table.Steps
		dt.TrainedUS = r.Table.TrainedUS
		dt.ConvergedAtUS = r.Table.ConvergedAtUS
		for s, row := range r.Table.Q {
			old, had := p.Table.Q[s]
			if !had {
				dt.Q[s] = row
				if v, ok := r.Table.Visits[s]; ok {
					dt.Visits[s] = v
				}
				continue
			}
			if p.Table.Visits[s] != r.Table.Visits[s] || !equalActionRow(old, row) {
				dt.Q[s] = row
				if v, ok := r.Table.Visits[s]; ok {
					dt.Visits[s] = v
				}
			}
		}
		for s, v := range r.Table.Visits {
			if _, hasRow := r.Table.Q[s]; hasRow {
				continue
			}
			if _, sent := dt.Visits[s]; sent {
				continue
			}
			if pv, had := p.Table.Visits[s]; !had || pv != v {
				dt.Visits[s] = v
			}
		}
		delta.Roles[i] = learner.RoleTable{Role: r.Role, Table: dt}
	}
	return delta, true
}

// choices turns fuzz bytes into bounded picks (0 once exhausted).
type choices struct {
	b []byte
	i int
}

func (c *choices) pick(n int) int {
	if c.i >= len(c.b) {
		return 0
	}
	c.i++
	return int(c.b[c.i-1]) % n
}

// fuzzValues are the row values a pick chooses from: ordinary values
// plus the ones equality and packing must not mangle.
var fuzzValues = []float64{0, math.Copysign(0, -1), 1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1),
	1e12, 5e-324, 0.25}

func (c *choices) row(actions int) []float64 {
	row := make([]float64, actions)
	for a := range row {
		row[a] = fuzzValues[c.pick(len(fuzzValues))]
	}
	return row
}

// fuzzSet builds a set of the named learner's layout whose states,
// rowless visit counts, zero and absent visit counts come from c.
func fuzzSet(c *choices, name string, actions int) *core.TableSet {
	set := learner.Must(name, actions).Snapshot()
	for _, r := range set.Roles {
		t := r.Table
		for n := c.pick(10); n > 0; n-- {
			s := core.StateKey(c.pick(16))
			if c.pick(5) > 0 {
				t.Q[s] = c.row(actions)
			}
			if v := c.pick(4); v > 0 {
				t.Visits[s] = v - 1
			}
		}
		t.Steps, t.TrainedUS, t.ConvergedAtUS = int64(c.pick(50)), int64(c.pick(50)), int64(c.pick(3))
	}
	return set
}

// fuzzMutate copies prev and applies picked edits: rewritten, new and
// dropped rows, changed, zeroed, new and dropped visit counts, a sign
// flip of zeros, new metadata, and now and then a layout change.
func fuzzMutate(c *choices, prev *core.TableSet) *core.TableSet {
	next := prev.Clone()
	switch c.pick(16) {
	case 0:
		next.Learner = "sarsa"
	case 1:
		next.Roles[0].Table.Actions++
	}
	for _, r := range next.Roles {
		t := r.Table
		for n := c.pick(8); n > 0; n-- {
			s := core.StateKey(c.pick(18))
			switch c.pick(8) {
			case 0:
				delete(t.Q, s)
			case 1:
				delete(t.Visits, s)
			case 2:
				t.Visits[s] = c.pick(3)
			case 3:
				if row, ok := t.Q[s]; ok {
					for a := range row {
						if row[a] == 0 {
							row[a] = -row[a]
						}
					}
				}
			default:
				t.Q[s] = c.row(prev.Primary().Actions)
			}
		}
		t.Steps += int64(c.pick(3))
		t.TrainedUS = int64(c.pick(50))
	}
	return next
}

// sameFloat is bit equality, or == when loose (so -0 matches +0).
func sameFloat(a, b float64, loose bool) bool {
	return math.Float64bits(a) == math.Float64bits(b) || loose && a == b
}

// sameSet compares two sets field by field with bit-exact values.
// loose admits the two equivalences the wire diff has always used:
// -0 equals +0, and a row state's absent visit count equals a zero one
// (both weigh 1 in the merge).
func sameSet(a, b *core.TableSet, loose bool) bool {
	if a.Learner != b.Learner || len(a.Roles) != len(b.Roles) {
		return false
	}
	for i := range a.Roles {
		ta, tb := a.Roles[i].Table, b.Roles[i].Table
		if a.Roles[i].Role != b.Roles[i].Role || ta.Actions != tb.Actions || ta.Steps != tb.Steps ||
			ta.TrainedUS != tb.TrainedUS || ta.ConvergedAtUS != tb.ConvergedAtUS ||
			len(ta.Q) != len(tb.Q) {
			return false
		}
		for s, ra := range ta.Q {
			rb, ok := tb.Q[s]
			if !ok || len(ra) != len(rb) {
				return false
			}
			for k := range ra {
				if !sameFloat(ra[k], rb[k], loose) {
					return false
				}
			}
		}
		for _, pair := range [][2]*core.QTable{{ta, tb}, {tb, ta}} {
			x, y := pair[0], pair[1]
			for s, v := range x.Visits {
				w, ok := y.Visits[s]
				_, row := x.Q[s]
				if w != v || !ok && !(loose && row && v == 0) {
					return false
				}
			}
		}
	}
	return true
}

// FuzzPackedDiff checks the uploader's packed base against the
// map-based path it replaced, over random prev/next pairs of both the
// one-role and the two-role (doubleq) layouts: packing round-trips,
// diffPacked returns exactly diffTableSet's delta (or refuses exactly
// when it does), and patching the packed base with that delta — what
// the server does with it — reproduces next.
func FuzzPackedDiff(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{9, 1, 2, 1, 3, 4, 5, 6, 7, 8, 9, 1, 2, 3, 3, 2, 1, 9, 9, 4, 4, 7, 1, 5, 2})
	f.Add([]byte{1, 9, 3, 0, 4, 4, 4, 1, 1, 2, 2, 5, 6, 7, 8, 0, 9, 8, 7, 2, 2, 3, 3, 9, 9, 9, 9, 1})
	f.Add([]byte{0, 7, 5, 1, 2, 0, 0, 0, 3, 3, 3, 3, 4, 2, 6, 6, 0, 1, 0, 1, 0, 1, 5, 5, 5, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &choices{b: data}
		name := []string{"watkins", "doubleq"}[c.pick(2)]
		prev := fuzzSet(c, name, 2+c.pick(3))
		next := fuzzMutate(c, prev)

		base, err := learner.Pack(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !sameSet(base.Unpack(), prev, false) {
			t.Fatal("pack/unpack does not round-trip")
		}
		got, ok := diffPacked(base, next)
		want, wantOK := diffTableSet(prev, next)
		if ok != wantOK {
			t.Fatalf("diffPacked ok=%v, diffTableSet ok=%v", ok, wantOK)
		}
		if !ok {
			return
		}
		if !sameSet(got, want, false) {
			t.Fatal("diffPacked differs from diffTableSet")
		}
		if err := base.Patch(got); err != nil {
			t.Fatal(err)
		}
		if !sameSet(base.Unpack(), next, true) {
			t.Fatal("patching the packed base with the delta does not reproduce next")
		}
		// Accepting the upload re-packs the base in place.
		if err := base.Repack(next); err != nil {
			t.Fatal(err)
		}
		if !sameSet(base.Unpack(), next, false) {
			t.Fatal("re-packing the base with next does not reproduce next")
		}
	})
}
