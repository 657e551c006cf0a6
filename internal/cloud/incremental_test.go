package cloud

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// randRow draws a row mixing ordinary Q-values with the values that
// stress exact summation (subnormals, ±1e12, -0).
func randRow(rng *rand.Rand, actions int) []float64 {
	row := make([]float64, actions)
	for i := range row {
		if rng.Intn(4) == 0 {
			row[i] = hostileFloat(rng)
			if math.Abs(row[i]) > 1e12 {
				row[i] = math.Copysign(1e12, row[i]) // fleetd's sanitize clamp
			}
		} else {
			row[i] = rng.NormFloat64()
		}
	}
	return row
}

// randVisit sets a state's visit count to one of the weight shapes the
// merge distinguishes: absent or zero (weight 1), ordinary, or the
// 2^18 sanitize cap.
func randVisit(rng *rand.Rand, t *core.QTable, s core.StateKey) {
	switch rng.Intn(5) {
	case 0:
		delete(t.Visits, s)
	case 1:
		t.Visits[s] = 0
	case 2:
		t.Visits[s] = 1 << 18
	default:
		t.Visits[s] = 1 + rng.Intn(200)
	}
}

// randFillTable populates a table with random rows, every weight shape,
// and metadata.
func randFillTable(rng *rand.Rand, t *core.QTable, states int) {
	for k := 0; k < states; k++ {
		s := core.StateKey(rng.Intn(120))
		t.Q[s] = randRow(rng, t.Actions)
		randVisit(rng, t, s)
	}
	if rng.Intn(2) == 0 {
		// A visit count without a row is legal and must not merge.
		t.Visits[core.StateKey(1000+rng.Intn(5))] = 1 + rng.Intn(9)
	}
	t.Steps = int64(rng.Intn(10_000))
	t.TrainedUS = int64(rng.Intn(1_000_000))
}

// randDeviceSet builds a random table set with the named learner's
// exact role layout.
func randDeviceSet(rng *rand.Rand, name string, actions int) *learner.TableSet {
	set := learner.Must(name, actions).Snapshot()
	for _, r := range set.Roles {
		randFillTable(rng, r.Table, 3+rng.Intn(12))
	}
	return set
}

// mutateDeviceSet clones a set and perturbs a few states per role —
// the realistic re-upload shape where most of the table is unchanged,
// so clean-state aliasing engages — including dropped states and
// weight-only changes.
func mutateDeviceSet(rng *rand.Rand, prev *learner.TableSet) *learner.TableSet {
	next := prev.Clone()
	for _, r := range next.Roles {
		t := r.Table
		for i := 1 + rng.Intn(3); i > 0; i-- {
			s := core.StateKey(rng.Intn(120))
			switch rng.Intn(5) {
			case 0: // drop the state entirely
				delete(t.Q, s)
				delete(t.Visits, s)
			case 1: // change only the weight
				if _, ok := t.Q[s]; ok {
					randVisit(rng, t, s)
				}
			default: // rewrite the row
				t.Q[s] = randRow(rng, t.Actions)
				randVisit(rng, t, s)
			}
		}
		t.Steps += int64(rng.Intn(500))
		t.TrainedUS += int64(rng.Intn(5_000)) - 2_000 // may shrink: the max must follow
		if t.TrainedUS < 0 {
			t.TrainedUS = 0
		}
	}
	return next
}

// effectiveWeight is the merge weight of a state in a map-based table.
func effectiveWeight(t *core.QTable, s core.StateKey) int64 {
	v, ok := t.Visits[s]
	return weightOf(v, ok)
}

func setBytes(t *testing.T, set *learner.TableSet) string {
	t.Helper()
	data, err := core.MarshalTableSetCompact("app", set, true)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// checkAgainstRat compares a merged set with the math/big definition
// of the merge over the given contributions: per role and state, every
// value must equal Rat.Float64() of Σw·q / Σw bit for bit, Visits must
// be Σw, Steps the sum and TrainedUS the maximum.
func checkAgainstRat(t *testing.T, got *learner.TableSet, sets []*learner.TableSet) {
	t.Helper()
	for r, rt := range got.Roles {
		type ref struct {
			sum    []big.Rat
			weight int64
		}
		refs := make(map[core.StateKey]*ref)
		var steps, trained int64
		for _, set := range sets {
			tab := set.Roles[r].Table
			steps += tab.Steps
			trained = max(trained, tab.TrainedUS)
			for s, row := range tab.Q {
				w := effectiveWeight(tab, s)
				rf := refs[s]
				if rf == nil {
					rf = &ref{sum: make([]big.Rat, len(row))}
					refs[s] = rf
				}
				for a, v := range row {
					var term big.Rat
					term.SetFloat64(v)
					term.Mul(&term, new(big.Rat).SetInt64(w))
					rf.sum[a].Add(&rf.sum[a], &term)
				}
				rf.weight += w
			}
		}
		tab := rt.Table
		if len(tab.Q) != len(refs) {
			t.Fatalf("role %q: %d merged states, want %d", rt.Role, len(tab.Q), len(refs))
		}
		if tab.Steps != steps || tab.TrainedUS != trained {
			t.Fatalf("role %q: steps/trained = %d/%d, want %d/%d", rt.Role, tab.Steps, tab.TrainedUS, steps, trained)
		}
		for s, rf := range refs {
			row, ok := tab.Q[s]
			if !ok {
				t.Fatalf("role %q: state %d missing from the merge", rt.Role, s)
			}
			if int64(tab.Visits[s]) != rf.weight {
				t.Fatalf("role %q state %d: visits %d, want %d", rt.Role, s, tab.Visits[s], rf.weight)
			}
			for a := range row {
				q := new(big.Rat).Quo(&rf.sum[a], new(big.Rat).SetInt64(rf.weight))
				want, _ := q.Float64()
				if !sameFloat(row[a], want) {
					t.Fatalf("role %q state %d action %d: merged %v (%#x), big.Rat %v (%#x)",
						rt.Role, s, a, row[a], math.Float64bits(row[a]), want, math.Float64bits(want))
				}
			}
		}
	}
}

// TestMergerDifferentialByteIdentity is the merge's property test:
// across every registered learner, several fleet sizes, and a dozen
// rounds of joins, partial re-uploads, dropped states, weight-only
// changes and full rewrites, every incremental Merge must equal the
// math/big definition cell for cell — and a from-scratch
// MergeTableSets over the same uploads in any shuffled order must
// reproduce it byte for byte.
func TestMergerDifferentialByteIdentity(t *testing.T) {
	for _, name := range learner.Names() {
		for _, fleet := range []int{1, 3, 17} {
			t.Run(fmt.Sprintf("%s/fleet=%d", name, fleet), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(7919*fleet + len(name))))
				uploads := make(map[string]*learner.TableSet)
				var ids []string
				m := NewMerger()
				upload := func(d string, next *learner.TableSet) {
					t.Helper()
					if err := m.Upload(d, next); err != nil {
						t.Fatal(err)
					}
					if _, known := uploads[d]; !known {
						ids = append(ids, d)
					}
					uploads[d] = next
				}
				for i := 0; i < fleet; i++ {
					upload(fmt.Sprintf("dev-%03d", i), randDeviceSet(rng, name, 9))
				}
				for round := 0; round < 12; round++ {
					if round > 0 {
						for j := 1 + rng.Intn(len(ids)); j > 0; j-- {
							d := ids[rng.Intn(len(ids))]
							if rng.Intn(4) == 0 {
								upload(d, randDeviceSet(rng, name, 9)) // full rewrite
							} else {
								upload(d, mutateDeviceSet(rng, uploads[d]))
							}
						}
						if round%5 == 0 {
							upload(fmt.Sprintf("new-%03d", round), randDeviceSet(rng, name, 9))
						}
					}
					got := m.Merge()
					sets := make([]*learner.TableSet, len(ids))
					for i, d := range ids {
						sets[i] = uploads[d]
					}
					checkAgainstRat(t, got, sets)
					want := setBytes(t, got)
					for shuffle := 0; shuffle < 3; shuffle++ {
						rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
						scratch, err := MergeTableSets(sets)
						if err != nil {
							t.Fatal(err)
						}
						if setBytes(t, scratch) != want {
							t.Fatalf("round %d: merge over a shuffled upload order differs", round)
						}
					}
				}
				// A round with no uploads (everything clean) reproduces the bytes.
				before := setBytes(t, m.merged)
				if setBytes(t, m.Merge()) != before {
					t.Fatal("clean-round merge diverges")
				}
			})
		}
	}
}

// TestMergerRejectsLayoutChanges: every layout change or out-of-domain
// value a hostile or reconfigured device could ship is refused, and a
// refused Update leaves the sums untouched.
func TestMergerRejectsLayoutChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dev0, dev1 := randDeviceSet(rng, "watkins", 9), randDeviceSet(rng, "watkins", 9)
	m := NewMerger()
	for i, s := range []*learner.TableSet{dev0, dev1} {
		if err := m.Upload(fmt.Sprint("dev", i), s); err != nil {
			t.Fatal(err)
		}
	}
	nan := mutateDeviceSet(rng, dev0)
	nan.Primary().Q[core.StateKey(7)] = []float64{math.NaN(), 0, 0, 0, 0, 0, 0, 0, 0}
	huge := mutateDeviceSet(rng, dev0)
	huge.Primary().Q[core.StateKey(7)] = []float64{0, 0, 0, 0, -MaxAbsQ, 0, 0, 0, 0}
	short := mutateDeviceSet(rng, dev0)
	short.Primary().Q[core.StateKey(8)] = []float64{1, 2}
	heavy := mutateDeviceSet(rng, dev0)
	for s := range dev1.Primary().Q { // a state dev1's weight already counts toward
		heavy.Primary().Q[s] = make([]float64, 9)
		heavy.Primary().Visits[s] = math.MaxInt
		break
	}
	cases := map[string]*learner.TableSet{
		"different learner":      randDeviceSet(rng, "doubleq", 9),
		"different action count": randDeviceSet(rng, "watkins", 6),
		"nil set":                nil,
		"empty set":              {Learner: "watkins"},
		"non-finite value":       nan,
		"value at MaxAbsQ":       huge,
		"short row":              short,
		"weight overflow":        heavy,
	}
	for name, next := range cases {
		if err := m.Upload("dev0", next); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	next := mutateDeviceSet(rng, dev1)
	if err := m.Upload("dev1", next); err != nil {
		t.Fatalf("valid upload refused after the rejections: %v", err)
	}
	checkAgainstRat(t, m.Merge(), []*learner.TableSet{dev0, next})
}

// TestBoundedMergerRefusesOverBudget: a bounded merger refuses any
// Update whose new states would take it past its cell budget, leaves
// the sums as they were, and counts cells freed once a merge round
// drops states no contribution holds.
func TestBoundedMergerRefusesOverBudget(t *testing.T) {
	set := func(states ...core.StateKey) *learner.TableSet {
		tab := core.NewQTable(9)
		for _, s := range states {
			tab.Q[s] = []float64{1, 2, 3, 4, 5, 6, 7, 8, float64(s)}
		}
		return learner.SingleTableSet(tab)
	}
	m := NewBoundedMerger(4 * 9)
	a := set(1, 2, 3)
	if err := m.Upload("a", a); err != nil {
		t.Fatal(err)
	}
	over := set(4, 5) // one state fits, two do not
	if err := m.Upload("over", over); err == nil {
		t.Fatal("update past the cell budget accepted")
	}
	b := set(2, 3, 4) // shared states cost nothing
	if err := m.Upload("b", b); err != nil {
		t.Fatalf("update within the budget refused: %v", err)
	}
	checkAgainstRat(t, m.Merge(), []*learner.TableSet{a, b})
	if err := m.Upload("a", set(2, 3)); err != nil { // drops state 1
		t.Fatal(err)
	}
	if err := m.Upload("c", set(5)); err == nil {
		t.Fatal("state 1's cells freed before a merge round dropped them")
	}
	m.Merge()
	if err := m.Upload("c", set(5)); err != nil {
		t.Fatalf("cells of a dropped state not freed: %v", err)
	}
}

// TestMergerAliasesCleanRows: the perf contract behind the 10k-device
// target — a re-upload touching one state must leave every other
// state's merged row physically shared with the previous output, not
// recomputed.
func TestMergerAliasesCleanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dev0, dev1 := randDeviceSet(rng, "watkins", 9), randDeviceSet(rng, "watkins", 9)
	m := NewMerger()
	for i, s := range []*learner.TableSet{dev0, dev1} {
		if err := m.Upload(fmt.Sprint("dev", i), s); err != nil {
			t.Fatal(err)
		}
	}
	first := m.Merge()
	// Touch exactly one state on one device.
	next := dev0.Clone()
	var touched core.StateKey
	for s := range next.Primary().Q {
		touched = s
		break
	}
	next.Primary().Q[touched][0] += 1
	if err := m.Upload("dev0", next); err != nil {
		t.Fatal(err)
	}
	second := m.Merge()
	prevQ := first.Primary().Q
	var aliased, recomputed int
	for s, row := range second.Primary().Q {
		if prev, ok := prevQ[s]; ok && &prev[0] == &row[0] {
			aliased++
		} else if s == touched {
			recomputed++
		}
	}
	if recomputed != 1 {
		t.Fatalf("touched state not recomputed (recomputed=%d)", recomputed)
	}
	if aliased != len(second.Primary().Q)-1 {
		t.Fatalf("clean states reallocated: %d aliased of %d", aliased, len(second.Primary().Q))
	}
	checkAgainstRat(t, second, []*learner.TableSet{next, dev1})
}

// benchDeviceSet is the perfbench device shape: 64 visited states over
// the Note 9's 9-action space.
func benchDeviceSet(rng *rand.Rand) *learner.TableSet {
	t := core.NewQTable(9)
	for s := 0; s < 64; s++ {
		row := make([]float64, 9)
		for a := range row {
			row[a] = rng.NormFloat64()
		}
		t.Q[core.StateKey(s)] = row
		t.Visits[core.StateKey(s)] = rng.Intn(200) + 1
	}
	return learner.SingleTableSet(t)
}

// retrain returns a delta upload for set: n of its states rewritten
// with one more visit each, with the set's Steps advanced by n.
func retrain(rng *rand.Rand, set *learner.TableSet, n int) *learner.TableSet {
	prev := set.Primary()
	t := core.NewQTable(prev.Actions)
	t.Steps = prev.Steps + int64(n)
	for _, s := range rng.Perm(len(prev.Q))[:n] {
		row := make([]float64, prev.Actions)
		for a := range row {
			row[a] = rng.NormFloat64()
		}
		t.Q[core.StateKey(s)] = row
		t.Visits[core.StateKey(s)] = prev.Visits[core.StateKey(s)] + 1
	}
	return learner.SingleTableSet(t)
}

// TestMergerUpdateZeroAllocs pins the upload paths' allocation budget:
// once a device's rows and a state's cells exist, patching a 4-state
// delta and re-uploading a full 64-state table allocate nothing.
func TestMergerUpdateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := benchDeviceSet(rng)
	d1, d2 := retrain(rng, a, 4), retrain(rng, a, 4)
	m := NewMerger()
	if err := m.Upload("dev", a); err != nil {
		t.Fatal(err)
	}
	cur, other := d1, d2
	delta := testing.AllocsPerRun(200, func() {
		if err := m.Patch("dev", cur); err != nil {
			t.Fatal(err)
		}
		cur, other = other, cur
	})
	b := benchDeviceSet(rng)
	full, next := a, b
	first := testing.AllocsPerRun(200, func() {
		if err := m.Upload("dev", full); err != nil {
			t.Fatal(err)
		}
		full, next = next, full
	})
	if delta != 0 || first != 0 {
		t.Fatalf("uploads allocate: %v/op for a 4-state delta, %v/op for a full upload", delta, first)
	}
}

// TestMergerPatchMatchesUpload: patching a device's stored rows with a
// delta lands exactly like a full upload of the overlaid table —
// including deltas that add states, reweight a stored row through a
// visit count alone, or carry rowless visit counts — and a refused
// delta changes neither the sums nor the stored rows.
func TestMergerPatchMatchesUpload(t *testing.T) {
	for _, name := range []string{"watkins", "doubleq"} {
		rng := rand.New(rand.NewSource(int64(len(name))))
		patched, full := NewMerger(), NewMerger()
		cur := make(map[string]*learner.TableSet)
		for i := 0; i < 5; i++ {
			d := fmt.Sprint("dev", i)
			cur[d] = randDeviceSet(rng, name, 9)
			for _, m := range []*Merger{patched, full} {
				if err := m.Upload(d, cur[d]); err != nil {
					t.Fatal(err)
				}
			}
		}
		for round := 0; round < 20; round++ {
			d := fmt.Sprint("dev", rng.Intn(5))
			delta := learner.Must(name, 9).Snapshot()
			next := cur[d].Clone()
			for r, rt := range delta.Roles {
				dt, nt := rt.Table, next.Roles[r].Table
				for k := 1 + rng.Intn(4); k > 0; k-- {
					s := core.StateKey(rng.Intn(130))
					if rng.Intn(6) == 0 {
						s = core.StateKey(1000 + rng.Intn(5)) // rowless visit states
					}
					switch rng.Intn(3) {
					case 0: // visit count alone
						dt.Visits[s] = rng.Intn(300)
					default:
						dt.Q[s] = randRow(rng, 9)
						randVisit(rng, dt, s)
					}
				}
				dt.Steps, dt.TrainedUS = nt.Steps+int64(rng.Intn(50)), int64(rng.Intn(1_000_000))
				for s, row := range dt.Q {
					nt.Q[s] = row
				}
				for s, v := range dt.Visits {
					nt.Visits[s] = v
				}
				nt.Steps, nt.TrainedUS, nt.ConvergedAtUS = dt.Steps, dt.TrainedUS, dt.ConvergedAtUS
			}
			if err := patched.Patch(d, delta); err != nil {
				t.Fatal(err)
			}
			if err := full.Upload(d, next); err != nil {
				t.Fatal(err)
			}
			cur[d] = next
			before := setBytes(t, patched.Merge())
			if got, want := before, setBytes(t, full.Merge()); got != want {
				t.Fatalf("%s round %d: patched merge differs from the full upload's", name, round)
			}
			sets := make([]*learner.TableSet, 0, len(cur))
			for _, set := range cur {
				sets = append(sets, set)
			}
			checkAgainstRat(t, patched.merged, sets)

			bad := learner.Must(name, 9).Snapshot()
			bad.Primary().Q[core.StateKey(rng.Intn(130))] = randRow(rng, 9)
			bad.Primary().Q[core.StateKey(200)] = []float64{math.NaN(), 0, 0, 0, 0, 0, 0, 0, 0}
			if err := patched.Patch(d, bad); err == nil {
				t.Fatal("delta with a NaN value accepted")
			}
			if err := patched.Patch("nobody", delta); err == nil {
				t.Fatal("delta for an unknown device accepted")
			}
			if setBytes(t, patched.Merge()) != before {
				t.Fatalf("%s round %d: refused delta changed the merge", name, round)
			}
		}
	}
}

// BenchmarkAccumulatorUpload is the store's per-upload merge cost:
// delta4 patches a device's stored 64-state table with a delta of 4
// retrained states; first64 uploads a full 64-state table whose rows
// the device did not hold (it alternates with an empty table, so
// every op adds or removes all 576 cells' contributions).
func BenchmarkAccumulatorUpload(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := benchDeviceSet(rng)
	d1, d2 := retrain(rng, a, 4), retrain(rng, a, 4)
	b.Run("delta4", func(b *testing.B) {
		m := NewMerger()
		if err := m.Upload("dev", a); err != nil {
			b.Fatal(err)
		}
		cur, other := d1, d2
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Patch("dev", cur); err != nil {
				b.Fatal(err)
			}
			cur, other = other, cur
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "uploads/s")
	})
	b.Run("first64", func(b *testing.B) {
		m := NewMerger()
		empty := learner.SingleTableSet(core.NewQTable(9))
		if err := m.Upload("dev", a); err != nil {
			b.Fatal(err)
		}
		cur, other := empty, a
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Upload("dev", cur); err != nil {
				b.Fatal(err)
			}
			cur, other = other, cur
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "uploads/s")
	})
}

// BenchmarkAccumulatorMerge is one merge round over a 10 000-device
// key with all 64 states dirty: 576 cells rounded. The untimed part
// of each op swaps one device's table for a fully retrained one, so
// every state is dirty when the round starts.
func BenchmarkAccumulatorMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMerger()
	var last *learner.TableSet
	for d := 0; d < 10_000; d++ {
		last = benchDeviceSet(rng)
		if err := m.Upload(fmt.Sprint("dev", d), last); err != nil {
			b.Fatal(err)
		}
	}
	m.Merge()
	cur, other := retrain(rng, last, 64), retrain(rng, last, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := m.Patch("dev9999", cur); err != nil {
			b.Fatal(err)
		}
		cur, other = other, cur
		b.StartTimer()
		m.Merge()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "merges/s")
}

// TestUploadChangesPatchReproducesUpload pins Changes against the rows
// the merger stores: patching a device's old rows with the listed
// states' new rows and visit counts reproduces its new rows bit for
// bit, every listed state really differs, and Replace is set exactly
// when the device is new or a row or visit count it held is gone.
func TestUploadChangesPatchReproducesUpload(t *testing.T) {
	for _, name := range []string{"watkins", "doubleq"} {
		rng := rand.New(rand.NewSource(int64(len(name)) + 7))
		m := NewMerger()
		var ch Changes
		cur := randDeviceSet(rng, name, 9)
		if err := m.UploadChanges("dev", cur, &ch); err != nil {
			t.Fatal(err)
		}
		if !ch.Replace {
			t.Fatal("a new device's upload does not replace")
		}
		replaced := 0
		for round := 0; round < 200; round++ {
			next := mutateDeviceSet(rng, cur)
			for _, r := range next.Roles {
				switch rng.Intn(4) {
				case 0: // zero a value, or flip a zero's sign: -0 and +0
					// are equal for the sums, not as stored bits
					for _, row := range r.Table.Q {
						row[0] = -row[0] * float64(rng.Intn(2))
						break
					}
				case 1: // a visit count without a row changes or appears
					r.Table.Visits[core.StateKey(1000+rng.Intn(5))] = rng.Intn(9)
				}
			}
			prev, err := learner.Pack(cur)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.UploadChanges("dev", next.Clone(), &ch); err != nil {
				t.Fatal(err)
			}
			dropped := false
			for r, rt := range cur.Roles {
				nt := next.Roles[r].Table
				for s := range rt.Table.Q {
					_, ok := nt.Q[s]
					dropped = dropped || !ok
				}
				for s := range rt.Table.Visits {
					_, ok := nt.Visits[s]
					dropped = dropped || !ok
				}
			}
			if ch.Replace != dropped {
				t.Fatalf("%s round %d: Replace = %v, want %v", name, round, ch.Replace, dropped)
			}
			cur = next
			if ch.Replace {
				replaced++
				continue
			}
			delta := learner.Must(name, 9).Snapshot()
			for r, states := range ch.States {
				dt, nt, pt := delta.Roles[r].Table, next.Roles[r].Table, prev.Roles[r]
				if !slices.IsSorted(states) || len(slices.Compact(slices.Clone(states))) != len(states) {
					t.Fatalf("%s round %d: states %v not ascending and distinct", name, round, states)
				}
				for _, s := range states {
					row, hasRow := nt.Q[s]
					v, hasVisit := nt.Visits[s]
					same := true
					if i, ok := pt.Find(s); ok != hasRow || hasRow && !sameBits(pt.Row(i), row) {
						same = false
					}
					if pv, ok := pt.Visit(s); ok != hasVisit || pv != v {
						same = false
					}
					if same {
						t.Fatalf("%s round %d: state %d listed but unchanged", name, round, s)
					}
					if hasRow {
						dt.Q[s] = row
					}
					if hasVisit {
						dt.Visits[s] = v
					}
				}
				dt.Steps, dt.TrainedUS, dt.ConvergedAtUS = nt.Steps, nt.TrainedUS, nt.ConvergedAtUS
			}
			if err := prev.Patch(delta); err != nil {
				t.Fatal(err)
			}
			got, err := core.AppendPackedSetBinary(nil, "app", prev, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.AppendPackedSetBinary(nil, "app", m.Device("dev"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s round %d: patching the listed states does not reproduce the upload", name, round)
			}
		}
		if replaced == 0 || replaced == 200 {
			t.Fatalf("%s: %d of 200 uploads replaced; the schedule misses a case", name, replaced)
		}
	}
}
