package fleetd

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

func policyBytes(t *testing.T, s *Store, k Key) string {
	t.Helper()
	set, _, ok := s.PolicySetRef(k)
	if !ok {
		t.Fatal("no policy")
	}
	data, err := core.MarshalTableSetCompact(k.App, set, true)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestStoreIncrementalMergeMatchesScratch is the store-level pin:
// across interleaved re-uploads, new devices and merge rounds, every
// served policy must be byte-identical to a from-scratch
// cloud.MergeTableSets over a shadow copy of the same uploads, taken in
// a shuffled order (the merge is exact, so order cannot matter).
func TestStoreIncrementalMergeMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	s := NewStore()
	k := Key{App: "spotify", Platform: "note9"}
	shadow := make(map[string]*learner.TableSet)

	upload := func(dev string, seed int) {
		t.Helper()
		set := learner.SingleTableSet(devTable(seed))
		shadow[dev] = set.Clone()
		if _, err := s.UploadSet(k, dev, set); err != nil {
			t.Fatal(err)
		}
	}
	check := func(round int) {
		t.Helper()
		if _, err := s.Merge(k); err != nil {
			t.Fatal(err)
		}
		sets := make([]*learner.TableSet, 0, len(shadow))
		for _, set := range shadow {
			sets = append(sets, set)
		}
		rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
		want, err := cloud.MergeTableSets(sets)
		if err != nil {
			t.Fatal(err)
		}
		wantData, err := core.MarshalTableSetCompact(k.App, want, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := policyBytes(t, s, k); got != string(wantData) {
			t.Fatalf("round %d: incremental policy diverges from scratch merge", round)
		}
	}

	for i := 0; i < 6; i++ {
		upload(fmt.Sprintf("dev-%03d", i), i+1)
	}
	check(0)
	for round := 1; round <= 10; round++ {
		for j := 1 + rng.Intn(4); j > 0; j-- {
			upload(fmt.Sprintf("dev-%03d", rng.Intn(6)), rng.Intn(40)+1)
		}
		if round%4 == 0 {
			upload(fmt.Sprintf("late-%03d", round), rng.Intn(40)+1)
		}
		check(round)
	}
}

// TestStoreUploadDelta pins the delta protocol: a delta applied on the
// generation it echoes lands exactly like the equivalent full upload,
// a stale or missing base fails with ErrDeltaBase without touching the
// store, and a layout change is rejected outright.
func TestStoreUploadDelta(t *testing.T) {
	s := NewStore()
	k := Key{App: "game", Platform: "note9"}

	full := devTable(3)
	_, gen, err := s.UploadSetGen(k, "dev-a", learner.SingleTableSet(full.Clone()))
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 {
		t.Fatalf("first upload gen = %d, want 1", gen)
	}
	// Second contributor so merges exercise real averaging.
	if _, err := s.UploadSet(k, "dev-b", learner.SingleTableSet(devTable(5))); err != nil {
		t.Fatal(err)
	}

	// The device trains two more states and revisits one.
	next := full.Clone()
	next.Q[core.StateKey(31)][0] = 7.5
	next.Visits[core.StateKey(31)] = 99
	row := make([]float64, 9)
	row[4] = -2.5
	next.Q[core.StateKey(777)] = row
	next.Visits[core.StateKey(777)] = 3
	next.Steps += 42

	delta := core.NewQTable(9)
	delta.Q[core.StateKey(31)] = next.Q[core.StateKey(31)]
	delta.Visits[core.StateKey(31)] = next.Visits[core.StateKey(31)]
	delta.Q[core.StateKey(777)] = next.Q[core.StateKey(777)]
	delta.Visits[core.StateKey(777)] = next.Visits[core.StateKey(777)]
	delta.Steps = next.Steps
	delta.TrainedUS = next.TrainedUS
	delta.ConvergedAtUS = next.ConvergedAtUS

	// Stale generation first: must refuse and leave the store as-is.
	if _, _, err := s.UploadDelta(k, "dev-a", learner.SingleTableSet(delta.Clone()), gen+7); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("stale base accepted (err=%v)", err)
	}
	// Unknown device: no base.
	if _, _, err := s.UploadDelta(k, "dev-new", learner.SingleTableSet(delta.Clone()), 0); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("baseless delta accepted (err=%v)", err)
	}
	// Layout change is a hard error, not a fallback signal.
	if _, _, err := s.UploadDelta(k, "dev-a", learner.SingleTableSet(core.NewQTable(6)), gen); err == nil || errors.Is(err, ErrDeltaBase) {
		t.Fatalf("action-space change err = %v, want non-ErrDeltaBase error", err)
	}

	_, gen2, err := s.UploadDelta(k, "dev-a", learner.SingleTableSet(delta), gen)
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != gen+1 {
		t.Fatalf("delta gen = %d, want %d", gen2, gen+1)
	}
	if _, err := s.Merge(k); err != nil {
		t.Fatal(err)
	}
	deltaPolicy := policyBytes(t, s, k)

	// Reference store: same traffic as full uploads.
	ref := NewStore()
	if _, err := ref.UploadSet(k, "dev-a", learner.SingleTableSet(next)); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.UploadSet(k, "dev-b", learner.SingleTableSet(devTable(5))); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Merge(k); err != nil {
		t.Fatal(err)
	}
	if deltaPolicy != policyBytes(t, ref, k) {
		t.Fatal("delta-built policy diverges from full-upload policy")
	}
}

// TestStoreDeltaAfterRestoreFallsBack: a warm-restarted store holds
// merged policies but no per-device bases, so the first delta from a
// pre-restart session must get ErrDeltaBase (the 409 that triggers the
// client's full-upload fallback), and the full upload must then work.
func TestStoreDeltaAfterRestoreFallsBack(t *testing.T) {
	dir := t.TempDir()
	k := Key{App: "maps", Platform: "note9"}
	a := NewStore()
	if _, gen, err := a.UploadSetGen(k, "dev-a", learner.SingleTableSet(devTable(2))); err != nil || gen != 1 {
		t.Fatalf("gen=%d err=%v", gen, err)
	}
	if _, err := a.Merge(k); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Snapshot(dir); err != nil {
		t.Fatal(err)
	}

	b := NewStore()
	if n, err := b.Restore(dir); err != nil || n != 1 {
		t.Fatalf("restore n=%d err=%v", n, err)
	}
	delta := learner.SingleTableSet(devTable(2))
	if _, _, err := b.UploadDelta(k, "dev-a", delta, 1); !errors.Is(err, ErrDeltaBase) {
		t.Fatalf("post-restore delta accepted (err=%v)", err)
	}
	if _, _, err := b.UploadSetGen(k, "dev-a", learner.SingleTableSet(devTable(2))); err != nil {
		t.Fatalf("full-upload fallback failed: %v", err)
	}
}

// TestStoreSnapshotRestoreConcurrentWithTraffic gives the race job
// real contention on the incremental merge path: uploads, deltas, merge
// rounds, snapshots, restores into a second store, and policy reads
// all run concurrently. Correctness here is "no race, no panic, every
// operation either succeeds or fails cleanly"; byte-identity under
// concurrency is pinned by the deterministic tests above.
func TestStoreSnapshotRestoreConcurrentWithTraffic(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	k := Key{App: "spotify", Platform: "note9"}
	if _, err := s.UploadSet(k, "dev-000", learner.SingleTableSet(devTable(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge(k); err != nil {
		t.Fatal(err)
	}

	const iters = 150
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dev := fmt.Sprintf("dev-%03d", w)
			gen := int64(0)
			for i := 0; i < iters; i++ {
				if gen > 0 && i%3 == 0 {
					delta := learner.SingleTableSet(devTable(w + i%7))
					if _, g, err := s.UploadDelta(k, dev, delta, gen); err == nil {
						gen = g
					} else if !errors.Is(err, ErrDeltaBase) {
						t.Error(err)
						return
					} else {
						gen = 0 // fall back to a full upload next round
					}
					continue
				}
				_, g, err := s.UploadSetGen(k, dev, learner.SingleTableSet(devTable(w+i%7)))
				if err != nil {
					t.Error(err)
					return
				}
				gen = g
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := s.Merge(k); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/3; i++ {
			if _, err := s.Snapshot(dir); err != nil {
				t.Error(err)
				return
			}
			other := NewStore()
			if _, err := other.Restore(dir); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if set, _, ok := s.PolicySetRef(k); ok && set.Primary() == nil {
				t.Error("published policy lost its primary table")
				return
			}
			s.Infos("")
			s.Stats()
		}
	}()
	wg.Wait()

	// The store converges: one more serial merge must match a scratch
	// join of whatever uploads won the races — via the public API, by
	// re-merging twice and comparing (the second round is all-clean).
	if _, err := s.Merge(k); err != nil {
		t.Fatal(err)
	}
	first := policyBytes(t, s, k)
	if _, err := s.Merge(k); err != nil {
		t.Fatal(err)
	}
	if second := policyBytes(t, s, k); first != second {
		t.Fatal("idle merge rounds do not converge to identical bytes")
	}
}
