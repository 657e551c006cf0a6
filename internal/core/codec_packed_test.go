package core

import (
	"bytes"
	"maps"
	"slices"
	"testing"

	"nextdvfs/internal/learner"
)

// TestPackedEncoderMatchesMarshal pins AppendPackedSetBinary to the
// map-based encoder: a packed set encodes to the bytes of
// MarshalTableSetBinary over its unpacked form, for the watkins and
// doubleq layouts, empty tables and visit counts without rows, and a
// delta encodes to the bytes of the map-based set holding just the
// listed states' rows and visit counts.
func TestPackedEncoderMatchesMarshal(t *testing.T) {
	watkins := NewQTable(4)
	for s := StateKey(3); s < 40; s += 3 {
		watkins.Q[s] = []float64{float64(s), -0.5, 1e-9, -0.0}
		watkins.Visits[s] = int(s)
	}
	watkins.Visits[StateKey(1000)] = 2 // rowless
	watkins.Steps, watkins.TrainedUS, watkins.ConvergedAtUS = 7, 8, 9
	rowless := NewQTable(2)
	rowless.Visits[StateKey(4)] = 1
	rowless.Visits[StateKey(9)] = 0
	sets := map[string]*learner.TableSet{
		"watkins": learner.SingleTableSet(watkins),
		"doubleq": binTestSet(),
		"empty":   learner.SingleTableSet(NewQTable(9)),
		"rowless": learner.SingleTableSet(rowless),
		"doubleq-empty": {Learner: "doubleq", Roles: []learner.RoleTable{
			{Role: "a", Table: NewQTable(3)}, {Role: "b", Table: NewQTable(3)},
		}},
	}
	for name, set := range sets {
		p, err := learner.Pack(set)
		if err != nil {
			t.Fatal(err)
		}
		want, err := MarshalTableSetBinary("app", p.Unpack(), false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPackedSetBinary([]byte("prefix"), "app", p, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:6], []byte("prefix")) || !bytes.Equal(got[6:], want) {
			t.Fatalf("%s: packed encoding differs from MarshalTableSetBinary", name)
		}

		// A delta of every other state (rows and visits alike), plus a
		// state the set does not hold.
		only := make([][]StateKey, len(p.Roles))
		sub := &learner.TableSet{Learner: set.Learner}
		for r, rt := range set.Roles {
			keys := append(sortedStateKeys(rt.Table.Q), sortedVisitKeys(rt.Table.Visits)...)
			keys = append(keys, 1<<40)
			d := NewQTable(rt.Table.Actions)
			if r == 0 {
				d.Steps, d.TrainedUS, d.ConvergedAtUS = rt.Table.Steps, rt.Table.TrainedUS, rt.Table.ConvergedAtUS
			}
			seen := map[StateKey]bool{}
			for i, s := range keys {
				if i%2 == 1 || seen[s] {
					continue
				}
				seen[s] = true
				if row, ok := rt.Table.Q[s]; ok {
					d.Q[s] = row
				}
				if v, ok := rt.Table.Visits[s]; ok {
					d.Visits[s] = v
				}
			}
			only[r] = slices.Sorted(maps.Keys(seen))
			sub.Roles = append(sub.Roles, learner.RoleTable{Role: rt.Role, Table: d})
		}
		want, err = MarshalTableSetBinary("app", sub, false)
		if err != nil {
			t.Fatal(err)
		}
		got, err = AppendPackedSetBinary(nil, "app", p, only)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: packed delta encoding differs from MarshalTableSetBinary of the subset", name)
		}
	}
	if _, err := AppendPackedSetBinary(nil, "app", &learner.PackedSet{}, nil); err == nil {
		t.Fatal("a set without roles encoded")
	}
}
