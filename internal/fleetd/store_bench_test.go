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

// BenchmarkFederate is the root's federation ingest without HTTP: one
// 64-item push (NXTF envelope decode, then each item's body decode and
// store apply) against a key holding 256 devices' 64-state tables.
// full64 items carry whole tables; delta4 items carry 4 retrained
// states on the device's current generation, the steady state of an
// edge forwarding changed rows. Pushes cycle through the devices 64 at
// a time, and each visit sends a device a table it does not hold.
// Envelopes are built with the timer stopped.
func BenchmarkFederate(b *testing.B) {
	const devices, items = 256, 64
	for _, kind := range []string{"full64", "delta4"} {
		b.Run(kind, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			srv, err := NewServer(Config{})
			if err != nil {
				b.Fatal(err)
			}
			k := Key{App: "spotify", Platform: "note9"}
			bodies := make([][]byte, 16)
			for i := range bodies {
				set := benchTable(rng, 64)
				if kind == "delta4" {
					set = benchTable(rng, 4)
				}
				if bodies[i], err = core.MarshalTableSetBinary(k.App, set, false); err != nil {
					b.Fatal(err)
				}
			}
			names, gens := make([]string, devices), make([]int64, devices)
			for d := range names {
				names[d] = fmt.Sprintf("dev-%05d", d)
				if _, gens[d], err = srv.Store().UploadSetGen(k, names[d], benchTable(rng, 64)); err != nil {
					b.Fatal(err)
				}
			}
			req := FederateRequest{Agg: "edge-0", Root: srv.instance, Uploads: make([]FederatedUpload, items)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				first := i % (devices / items) * items
				for j := range req.Uploads {
					d := first + j
					req.Uploads[j] = FederatedUpload{
						Device: names[d], Platform: k.Platform,
						Body: bodies[(int(gens[d])+j)%len(bodies)],
					}
					if kind == "delta4" {
						req.Uploads[j].BaseGen = gens[d]
					}
				}
				data := MarshalFederateRequest(req)
				b.StartTimer()
				decoded, err := UnmarshalFederateRequest(data)
				if err != nil {
					b.Fatal(err)
				}
				reply := srv.federate(decoded)
				if reply.Accepted != items {
					b.Fatalf("push accepted %d of %d items: %v", reply.Accepted, items, reply.Errors)
				}
				for j, r := range reply.Results {
					gens[first+j] = r.Gen
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pushes/s")
		})
	}
}
