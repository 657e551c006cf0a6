package learner

import (
	"math"
	"math/rand"
	"testing"
)

// packTestSet builds a set of the named learner's layout with rows,
// a rowless visit count, a row without a visit count, and the values
// packing must carry bit for bit (-0, NaN, ±Inf).
func packTestSet(rng *rand.Rand, name string) *TableSet {
	set := Must(name, 3).Snapshot()
	for i, r := range set.Roles {
		t := r.Table
		for k := 0; k < 8; k++ {
			s := StateKey(rng.Intn(40))
			t.Q[s] = []float64{rng.NormFloat64(), math.Copysign(0, -1), float64(k)}
			t.Visits[s] = rng.Intn(9)
		}
		t.Q[100] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		delete(t.Visits, 100)
		t.Visits[200] = 4
		t.Steps, t.TrainedUS, t.ConvergedAtUS = int64(10+i), int64(20+i), int64(30+i)
	}
	return set
}

// sameTables reports whether two sets hold the same tables, with
// values compared bit for bit.
func sameTables(a, b *TableSet) bool {
	if a.Learner != b.Learner || len(a.Roles) != len(b.Roles) {
		return false
	}
	for i := range a.Roles {
		ta, tb := a.Roles[i].Table, b.Roles[i].Table
		if a.Roles[i].Role != b.Roles[i].Role || ta.Actions != tb.Actions || ta.Steps != tb.Steps ||
			ta.TrainedUS != tb.TrainedUS || ta.ConvergedAtUS != tb.ConvergedAtUS ||
			len(ta.Q) != len(tb.Q) || len(ta.Visits) != len(tb.Visits) {
			return false
		}
		for s, ra := range ta.Q {
			rb, ok := tb.Q[s]
			if !ok || len(ra) != len(rb) {
				return false
			}
			for k := range ra {
				if math.Float64bits(ra[k]) != math.Float64bits(rb[k]) {
					return false
				}
			}
		}
		for s, v := range ta.Visits {
			if w, ok := tb.Visits[s]; !ok || w != v {
				return false
			}
		}
	}
	return true
}

func TestPackRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range []string{"watkins", "doubleq"} {
		set := packTestSet(rng, name)
		p, err := Pack(set)
		if err != nil {
			t.Fatal(err)
		}
		if !sameTables(p.Unpack(), set) {
			t.Fatalf("%s: pack/unpack does not round-trip", name)
		}
		pt := &p.Roles[0]
		keys := pt.RowKeys()
		for i := 1; i < len(keys); i++ {
			if keys[i-1] >= keys[i] {
				t.Fatalf("%s: row keys not ascending: %v", name, keys)
			}
		}
		if i, ok := pt.Find(100); !ok || !math.IsNaN(pt.Row(i)[0]) {
			t.Fatalf("%s: Find(100) = %d, %v", name, i, ok)
		}
		if v, ok := pt.Visit(200); !ok || v != 4 {
			t.Fatalf("%s: rowless visit count = %d, %v", name, v, ok)
		}
		if _, ok := pt.Visit(100); ok {
			t.Fatalf("%s: state without a visit count reports one", name)
		}
	}
	ragged := SingleTableSet(NewQTable(3))
	ragged.Primary().Q[1] = []float64{1, 2}
	if _, err := Pack(ragged); err == nil {
		t.Fatal("ragged row packed")
	}
}

// TestRepackReusesArrays: re-packing a table of the same shape writes
// into the existing arrays without allocating, and any change of key
// set — same counts with different states, more states, fewer — still
// packs exactly.
func TestRepackReusesArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := packTestSet(rng, "doubleq")
	p, err := Pack(a)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	for _, r := range b.Roles {
		for _, row := range r.Table.Q {
			row[0]++
		}
		for s := range r.Table.Visits {
			r.Table.Visits[s]++
		}
	}
	cur, other := a, b
	if allocs := testing.AllocsPerRun(100, func() {
		if err := p.Repack(cur); err != nil {
			t.Fatal(err)
		}
		cur, other = other, cur
	}); allocs != 0 {
		t.Fatalf("same-shape repack allocates %v/op", allocs)
	}

	shifted := a.Clone()
	for _, r := range shifted.Roles {
		q := r.Table.Q
		for s, row := range q {
			if s < 100 {
				delete(q, s)
				q[s+1000] = row // same counts, different states
				break
			}
		}
		r.Table.Visits[300] = r.Table.Visits[200]
		delete(r.Table.Visits, 200)
	}
	grown := a.Clone()
	grown.Primary().Q[5000] = []float64{1, 2, 3}
	shrunk := a.Clone()
	for s := range shrunk.Primary().Q {
		delete(shrunk.Primary().Q, s)
		break
	}
	for _, next := range []*TableSet{shifted, grown, shrunk, a} {
		if err := p.Repack(next); err != nil {
			t.Fatal(err)
		}
		if !sameTables(p.Unpack(), next) {
			t.Fatal("repack does not reproduce the table")
		}
	}
}

// TestPatchOverlays: a delta touching only held states is written in
// place without allocating; one adding row or visit states rebuilds;
// both equal the map overlay, and a mismatched delta changes nothing.
func TestPatchOverlays(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := packTestSet(rng, "watkins")
	p, err := Pack(base)
	if err != nil {
		t.Fatal(err)
	}
	overlay := func(set, delta *TableSet) *TableSet {
		out := set.Clone()
		for i, r := range delta.Roles {
			ot := out.Roles[i].Table
			for s, row := range r.Table.Q {
				ot.Q[s] = append([]float64(nil), row...)
			}
			for s, v := range r.Table.Visits {
				ot.Visits[s] = v
			}
			ot.Steps, ot.TrainedUS, ot.ConvergedAtUS = r.Table.Steps, r.Table.TrainedUS, r.Table.ConvergedAtUS
		}
		return out
	}
	var held StateKey
	for s := range base.Primary().Q {
		held = s
		break
	}
	inPlace := SingleTableSet(NewQTable(3))
	inPlace.Primary().Q[held] = []float64{7, 8, 9}
	inPlace.Primary().Visits[200] = 11
	inPlace.Primary().Steps = 99
	want := overlay(base, inPlace)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := p.Patch(inPlace); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("in-place patch allocates %v/op", allocs)
	}
	if !sameTables(p.Unpack(), want) {
		t.Fatal("in-place patch differs from the overlay")
	}

	grow := SingleTableSet(NewQTable(3))
	grow.Primary().Q[3000] = []float64{1, 1, 1}
	grow.Primary().Q[held] = []float64{-1, -1, -1}
	grow.Primary().Visits[4000] = 2
	want = overlay(want, grow)
	if err := p.Patch(grow); err != nil {
		t.Fatal(err)
	}
	if !sameTables(p.Unpack(), want) {
		t.Fatal("growing patch differs from the overlay")
	}

	bad := SingleTableSet(NewQTable(3))
	bad.Primary().Q[1] = []float64{1}
	wide := SingleTableSet(NewQTable(4))
	for _, d := range []*TableSet{bad, wide, Must("doubleq", 3).Snapshot()} {
		if err := p.Patch(d); err == nil {
			t.Fatal("mismatched delta patched")
		}
	}
	if !sameTables(p.Unpack(), want) {
		t.Fatal("a refused patch changed the set")
	}
}
