package fleetd

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
)

func devTable(seed int) *core.QTable {
	t := core.NewQTable(9)
	for i := 0; i < 6; i++ {
		row := make([]float64, 9)
		for a := range row {
			row[a] = float64(seed) + float64(i*9+a)*0.25
		}
		t.Q[core.StateKey(seed*10+i)] = row
		t.Visits[core.StateKey(seed*10+i)] = seed + i + 1
	}
	t.Steps = int64(seed * 100)
	return t
}

func TestStoreUploadMergePolicy(t *testing.T) {
	s := NewStore()
	k := Key{App: "spotify", Platform: "note9"}
	for i := 0; i < 4; i++ {
		n, err := s.Upload(k, fmt.Sprintf("dev-%03d", i), devTable(i+1))
		if err != nil {
			t.Fatal(err)
		}
		if n != i+1 {
			t.Fatalf("device count = %d, want %d", n, i+1)
		}
	}
	if _, _, ok := s.Policy(k); ok {
		t.Fatal("policy before any merge round")
	}
	info, err := s.Merge(k)
	if err != nil {
		t.Fatal(err)
	}
	if info.Round != 1 || info.Devices != 4 {
		t.Fatalf("merge info = %+v", info)
	}
	got, round, ok := s.Policy(k)
	if !ok || round != 1 {
		t.Fatalf("policy missing after merge (ok=%v round=%d)", ok, round)
	}

	// The served policy must equal a direct cloud.MergeTables of the
	// uploads in sorted-device order — byte-for-byte.
	var tables []*core.QTable
	for i := 0; i < 4; i++ {
		tables = append(tables, devTable(i+1))
	}
	want, err := cloud.MergeTables(tables)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := core.MarshalTable(k.App, got, true)
	wantJSON, _ := core.MarshalTable(k.App, want, true)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("store merge differs from serial cloud.MergeTables")
	}
}

func TestStoreReUploadReplaces(t *testing.T) {
	s := NewStore()
	k := Key{App: "chrome", Platform: "note9"}
	if _, err := s.Upload(k, "d0", devTable(1)); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Upload(k, "d0", devTable(2)); err != nil || n != 1 {
		t.Fatalf("re-upload: n=%d err=%v", n, err)
	}
	info, err := s.Merge(k)
	if err != nil {
		t.Fatal(err)
	}
	if info.Devices != 1 {
		t.Fatalf("re-upload must replace, not add: %d devices", info.Devices)
	}
}

func TestStoreCloneSemantics(t *testing.T) {
	s := NewStore()
	k := Key{App: "spotify", Platform: "note9"}
	mine := devTable(1)
	if _, err := s.Upload(k, "d0", mine); err != nil {
		t.Fatal(err)
	}
	// Mutating the caller's table after upload must not affect the store.
	mine.Q[core.StateKey(10)][0] = 1e9
	if _, err := s.Merge(k); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Policy(k)
	if got.Q[core.StateKey(10)][0] == 1e9 {
		t.Fatal("store aliases uploaded table memory")
	}
	// Mutating a returned policy must not affect the store either.
	got.Q[core.StateKey(10)][0] = -1e9
	again, _, _ := s.Policy(k)
	if again.Q[core.StateKey(10)][0] == -1e9 {
		t.Fatal("store aliases returned policy memory")
	}
}

func TestStoreValidation(t *testing.T) {
	s := NewStore()
	k := Key{App: "spotify", Platform: "note9"}
	if _, err := s.Upload(Key{}, "d0", devTable(1)); err == nil {
		t.Fatal("empty key should fail")
	}
	if _, err := s.Upload(k, "", devTable(1)); err == nil {
		t.Fatal("empty device should fail")
	}
	if _, err := s.Upload(k, "d0", nil); err == nil {
		t.Fatal("nil table should fail")
	}
	if _, err := s.Merge(k); err == nil {
		t.Fatal("merge with no uploads should fail")
	}
	if _, err := s.Upload(k, "d0", devTable(1)); err != nil {
		t.Fatal(err)
	}
	bad := core.NewQTable(3)
	if _, err := s.Upload(k, "d1", bad); err == nil {
		t.Fatal("action-space mismatch should fail at upload")
	}
}

// Identifiers become snapshot path components; anything that could
// escape the snapshot directory (or smuggle a separator) must be
// rejected before it reaches filepath.Join.
func TestStoreRejectsPathTraversalNames(t *testing.T) {
	s := NewStore()
	evil := []string{"../../../../tmp/pwn", "a/b", `a\b`, "..", ".", "", "name with spaces", "x\x00y"}
	for _, name := range evil {
		if _, err := s.Upload(Key{App: name, Platform: "note9"}, "d0", devTable(1)); err == nil {
			t.Fatalf("app %q accepted", name)
		}
		if _, err := s.Upload(Key{App: "spotify", Platform: name}, "d0", devTable(1)); err == nil {
			t.Fatalf("platform %q accepted", name)
		}
		if _, err := s.Upload(Key{App: "spotify", Platform: "note9"}, name, devTable(1)); err == nil {
			t.Fatalf("device %q accepted", name)
		}
		if _, err := s.Merge(Key{App: "spotify", Platform: name}); err == nil {
			t.Fatalf("merge with platform %q accepted", name)
		}
	}
}

// Hostile bookkeeping counters and Q magnitudes must be clamped before
// merging: absurd visit counts must not overflow the merge weight into
// sign-flipped Q-values, and 1e308 Q-values must not reach ±Inf in the
// accumulator (json.Marshal refuses Inf, which would brick the policy
// download and snapshot path for the key).
func TestStoreClampsHostileUploads(t *testing.T) {
	if maxQValue >= cloud.MaxAbsQ {
		t.Fatalf("sanitize clamp %g does not fit the merge's bound %g", maxQValue, cloud.MaxAbsQ)
	}
	s := NewStore()
	k := Key{App: "spotify", Platform: "note9"}
	for _, dev := range []string{"d0", "d1"} {
		evil := core.NewQTable(9)
		evil.Q[core.StateKey(1)] = []float64{1, 1e308, -1e308, 0, 0, 0, 0, 0, 0}
		evil.Visits[core.StateKey(1)] = math.MaxInt
		evil.Steps = -5
		evil.TrainedUS = math.MaxInt64
		if _, err := s.Upload(k, dev, evil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Merge(k); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Policy(k)
	if v := got.Visits[core.StateKey(1)]; v <= 0 || v > 2*maxVisitWeight {
		t.Fatalf("merged visits = %d; overflow not prevented", v)
	}
	row := got.Q[core.StateKey(1)]
	if row[0] != 1 {
		t.Fatalf("merged Q = %v, want 1 (sign-flip/garbage from weight overflow)", row[0])
	}
	for i, q := range row {
		if math.IsInf(q, 0) || math.IsNaN(q) {
			t.Fatalf("action %d merged to %v; magnitude clamp failed", i, q)
		}
	}
	// The poisoned-but-sanitized policy must still marshal (the exact
	// failure mode of unclamped Inf).
	if _, err := core.MarshalTableCompact(k.App, got, true); err != nil {
		t.Fatalf("merged policy no longer marshals: %v", err)
	}
	if got.Steps < 0 || got.TrainedUS < 0 {
		t.Fatalf("negative counters survived: steps=%d trained=%d", got.Steps, got.TrainedUS)
	}
}

// A snapshot file whose embedded app name breaks the safe-name
// invariant must fail restore loudly, not become an unservable (and
// re-snapshot-escaping) ghost policy.
func TestStoreRestoreRejectsUnsafeNames(t *testing.T) {
	dir := t.TempDir()
	data, err := core.MarshalTable("../escape", devTable(1), true)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "note9"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "note9", "evil.qtable.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStore().Restore(dir); err == nil {
		t.Fatal("unsafe embedded app name restored silently")
	}
}

// Unauthenticated uploads must not grow the store without bound.
func TestStoreBoundsDevicesPerKey(t *testing.T) {
	s := NewStore()
	k := Key{App: "spotify", Platform: "note9"}
	small := func() *core.QTable {
		t := core.NewQTable(9)
		t.Q[core.StateKey(1)] = make([]float64, 9)
		t.Visits[core.StateKey(1)] = 1
		return t
	}
	for i := 0; i < maxDevicesPerKey; i++ {
		if _, err := s.Upload(k, fmt.Sprintf("dev-%08d", i), small()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Upload(k, "dev-one-too-many", small()); err == nil {
		t.Fatal("device cap not enforced")
	}
	// A device already in the fleet may still refresh its table.
	if _, err := s.Upload(k, "dev-00000000", small()); err != nil {
		t.Fatalf("re-upload at cap rejected: %v", err)
	}
}

// TestDeviceCapKeepsMergeWeightInInt: the per-key device cap is clamped
// so a merged state's weight (up to maxVisitWeight per device) fits the
// platform's int. The arithmetic runs on int64 with each platform's
// MaxInt, so the 32-bit bound is checked on every host.
func TestDeviceCapKeepsMergeWeightInInt(t *testing.T) {
	for _, c := range []struct {
		requested, maxInt, want int64
	}{
		{0, math.MaxInt32, maxDevicesPerKey},
		{-5, math.MaxInt64, maxDevicesPerKey},
		{10_000, math.MaxInt64, 10_000},
		{10_000, math.MaxInt32, 8191},
		{math.MaxInt64, math.MaxInt64, math.MaxInt64 / maxVisitWeight},
	} {
		got := deviceCap(c.requested, c.maxInt)
		if got != c.want {
			t.Errorf("deviceCap(%d, %d) = %d, want %d", c.requested, c.maxInt, got, c.want)
		}
		if got*maxVisitWeight > c.maxInt {
			t.Errorf("deviceCap(%d, %d) = %d lets a merged weight reach %d > %d",
				c.requested, c.maxInt, got, got*maxVisitWeight, c.maxInt)
		}
	}
}

// Concurrent uploads and merges across many keys: exercised under
// -race in CI; also asserts every key ends up mergeable.
func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	apps := []string{"spotify", "chrome", "pubgmobile", "youtube"}
	const devices = 16
	var wg sync.WaitGroup
	for _, app := range apps {
		for d := 0; d < devices; d++ {
			wg.Add(1)
			go func(app string, d int) {
				defer wg.Done()
				k := Key{App: app, Platform: "note9"}
				if _, err := s.Upload(k, fmt.Sprintf("dev-%03d", d), devTable(d+1)); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.Merge(k); err != nil {
					t.Error(err)
				}
			}(app, d)
		}
	}
	wg.Wait()
	for _, app := range apps {
		info, err := s.Merge(Key{App: app, Platform: "note9"})
		if err != nil {
			t.Fatal(err)
		}
		if info.Devices != devices {
			t.Fatalf("%s: %d devices, want %d", app, info.Devices, devices)
		}
	}
	keys, merged, uploads := s.Stats()
	if keys != len(apps) || merged != len(apps) || uploads != len(apps)*devices {
		t.Fatalf("stats = %d/%d/%d", keys, merged, uploads)
	}
}

func TestStoreSnapshotRestore(t *testing.T) {
	dir := t.TempDir()
	s := NewStore()
	for _, k := range []Key{
		{App: "spotify", Platform: "note9"},
		{App: "pubgmobile", Platform: "sd855"},
	} {
		if _, err := s.Upload(k, "d0", devTable(3)); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Merge(k); err != nil {
			t.Fatal(err)
		}
	}
	n, err := s.Snapshot(dir)
	if err != nil || n != 2 {
		t.Fatalf("snapshot: n=%d err=%v", n, err)
	}

	warm := NewStore()
	n, err = warm.Restore(dir)
	if err != nil || n != 2 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	for _, k := range []Key{
		{App: "spotify", Platform: "note9"},
		{App: "pubgmobile", Platform: "sd855"},
	} {
		cold, _, _ := s.Policy(k)
		hot, round, ok := warm.Policy(k)
		if !ok || round != 1 {
			t.Fatalf("%s not restored", k)
		}
		coldJSON, _ := core.MarshalTable(k.App, cold, true)
		hotJSON, _ := core.MarshalTable(k.App, hot, true)
		if !bytes.Equal(coldJSON, hotJSON) {
			t.Fatalf("%s: restored table differs from snapshotted", k)
		}
	}

	// Restoring from a directory that never existed is a cold start.
	if n, err := NewStore().Restore(dir + "/nope"); err != nil || n != 0 {
		t.Fatalf("missing dir: n=%d err=%v", n, err)
	}
}
