package fleetd

import (
	"fmt"
	"math/rand"
	"testing"

	"nextdvfs/internal/core"
	"nextdvfs/internal/learner"
)

// benchTable is the fleet benches' device shape: 64 visited states
// over the Note 9's 9-action space. A delta (states > 0) carries that
// many of the 64 states, rewritten with one more visit each.
func benchTable(rng *rand.Rand, states int) *learner.TableSet {
	t := core.NewQTable(9)
	for _, s := range rng.Perm(64)[:states] {
		row := make([]float64, 9)
		for a := range row {
			row[a] = rng.NormFloat64()
		}
		t.Q[core.StateKey(s)] = row
		t.Visits[core.StateKey(s)] = rng.Intn(200) + 1
	}
	t.Steps = int64(rng.Intn(10_000))
	return learner.SingleTableSet(t)
}

// BenchmarkStoreUpload is the store's upload stage without HTTP or a
// codec: against one key holding every device's 64-state table, delta4
// patches a device's stored rows with 4 retrained states (the
// steady-state check-in) and full64 replaces a device's whole table.
// Devices are visited in a scattered order, so the stored rows an
// upload reads are as cold as in a live fleet. Inputs come from a
// small prebuilt pool (the store never retains them), so allocs/op is
// the store's own.
func BenchmarkStoreUpload(b *testing.B) {
	for _, kind := range []string{"delta4", "full64"} {
		for _, devices := range []int{1000, 10_000} {
			b.Run(fmt.Sprintf("%s/devices=%d", kind, devices), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				s := NewStoreMaxDevices(devices)
				k := Key{App: "spotify", Platform: "note9"}
				fulls, deltas := make([]*learner.TableSet, 16), make([]*learner.TableSet, 16)
				for i := range fulls {
					fulls[i], deltas[i] = benchTable(rng, 64), benchTable(rng, 4)
				}
				names, gens := make([]string, devices), make([]int64, devices)
				for d := range names {
					names[d] = fmt.Sprintf("dev-%05d", d)
					var err error
					if _, gens[d], err = s.UploadSetGen(k, names[d], fulls[0]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := s.Merge(k); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d := i * 7919 % devices
					next := gens[d] % int64(len(fulls)) // never the device's previous upload
					var err error
					if kind == "delta4" {
						_, gens[d], err = s.UploadDelta(k, names[d], deltas[next], gens[d])
					} else {
						_, gens[d], err = s.UploadSetGen(k, names[d], fulls[next])
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "uploads/s")
			})
		}
	}
}
