package aggregator

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
)

// Root availability modes of a rootSwitch.
const (
	rootUp        int32 = iota
	rootDown            // every request fails before the root sees it
	rootLostReply       // the root applies the request, the reply is lost
)

// rootSwitch fronts a replaceable root handler with the failure modes
// the federation protocol must survive. A hook set in duringPush runs
// once, when the next federation push arrives and before the root sees
// it.
type rootSwitch struct {
	h          atomic.Value // http.Handler
	mode       atomic.Int32
	duringPush atomic.Pointer[func()]
}

func (s *rootSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := s.h.Load().(http.Handler)
	if hook := s.duringPush.Swap(nil); hook != nil && r.URL.Path == "/v1/federate" {
		(*hook)()
	}
	switch s.mode.Load() {
	case rootDown:
		http.Error(w, `{"error":"root down"}`, http.StatusServiceUnavailable)
	case rootLostReply:
		h.ServeHTTP(httptest.NewRecorder(), r)
		http.Error(w, `{"error":"reply lost"}`, http.StatusBadGateway)
	default:
		h.ServeHTTP(w, r)
	}
}

// newSwitchedRoot starts a root behind a rootSwitch.
func newSwitchedRoot(t *testing.T) (*rootSwitch, *fleetd.Server, string) {
	t.Helper()
	root, err := fleetd.NewServer(fleetd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sw := &rootSwitch{}
	sw.h.Store(root.Handler())
	ts := httptest.NewServer(sw)
	t.Cleanup(ts.Close)
	return sw, root, ts.URL
}

// retrained returns a copy of tbl with the given states' rows and
// visit counts rewritten (states it lacks are added).
func retrained(tbl *core.QTable, step int, states ...int) *core.QTable {
	out := tbl.Clone()
	for _, s := range states {
		row := make([]float64, out.Actions)
		for a := range row {
			row[a] = float64(step*100+s) + float64(a)/8
		}
		out.Q[core.StateKey(s)] = row
		out.Visits[core.StateKey(s)] = step + s + 1
	}
	out.Steps += int64(step)
	return out
}

// fedFleet drives devices through edges and records, per device, its
// latest accepted table and the edge that holds it.
type fedFleet struct {
	t       *testing.T
	k       fleetd.Key
	clients map[*Server]*fleetd.Client
	final   map[string]*core.QTable
	owner   map[string]*Server
}

func newFedFleet(t *testing.T, k fleetd.Key) *fedFleet {
	return &fedFleet{t: t, k: k, clients: map[*Server]*fleetd.Client{},
		final: map[string]*core.QTable{}, owner: map[string]*Server{}}
}

func (f *fedFleet) edge(cfg Config) *Server {
	agg, c := newEdge(f.t, cfg)
	c.UseBinary = len(f.clients)%2 == 1 // mix both device wire encodings
	f.clients[agg] = c
	return agg
}

func (f *fedFleet) upload(agg *Server, dev string, tbl *core.QTable) {
	f.t.Helper()
	if _, err := f.clients[agg].UploadTable(dev, f.k.Platform, f.k.App, tbl); err != nil {
		f.t.Fatalf("upload %s via %s: %v", dev, agg.ID(), err)
	}
	f.final[dev], f.owner[dev] = tbl, agg
}

// flush drains one edge against a healthy root: everything pending
// lands (wantForwarded items, unless it is negative), and the root then
// mirrors the edge for its devices.
func (f *fedFleet) flush(agg *Server, root *fleetd.Store, wantForwarded int) {
	f.t.Helper()
	n, err := agg.Flush()
	if err != nil || wantForwarded >= 0 && n != wantForwarded {
		f.t.Fatalf("flush %s = %d, %v; want %d", agg.ID(), n, err, wantForwarded)
	}
	if p := agg.Pending(); p != 0 {
		f.t.Fatalf("%s: %d pending after a flush against a healthy root", agg.ID(), p)
	}
	f.checkMirror(root, agg)
}

// checkMirror pins that the root holds exactly the edge's rows, visit
// counts (rowless ones included) and metadata for every device whose
// latest upload went to agg.
func (f *fedFleet) checkMirror(root *fleetd.Store, agg *Server) {
	f.t.Helper()
	for dev, owner := range f.owner {
		if owner != agg {
			continue
		}
		want, err := agg.Store().AppendDeviceTable(nil, f.k, dev, nil)
		if err != nil {
			f.t.Fatal(err)
		}
		got, err := root.AppendDeviceTable(nil, f.k, dev, nil)
		if err != nil {
			f.t.Fatalf("root lacks %s: %v", dev, err)
		}
		if !bytes.Equal(got, want) {
			f.t.Fatalf("root's rows for %s differ from %s's", dev, agg.ID())
		}
	}
}

// checkFlat merges at the root and pins the policy to a flat store
// given each device's latest table.
func (f *fedFleet) checkFlat(root *fleetd.Store) {
	f.t.Helper()
	info, _, err := root.MergeSet(f.k)
	if err != nil {
		f.t.Fatal(err)
	}
	if info.Devices != len(f.final) {
		f.t.Fatalf("root merge saw %d devices, want %d", info.Devices, len(f.final))
	}
	flat := fleetd.NewStore()
	for dev, tbl := range f.final {
		if _, err := flat.UploadSet(f.k, dev, learner.SingleTableSet(tbl)); err != nil {
			f.t.Fatal(err)
		}
	}
	if _, _, err := flat.MergeSet(f.k); err != nil {
		f.t.Fatal(err)
	}
	if !bytes.Equal(marshalPolicy(f.t, root, f.k), marshalPolicy(f.t, flat, f.k)) {
		f.t.Fatal("root policy is not byte-identical to the flat merge of the final uploads")
	}
}

func checkItems(t *testing.T, agg *Server, delta, full, stale int64) {
	t.Helper()
	m := agg.Metrics()
	if d, f, s := m.forwardedDelta.Load(), m.forwardedFull.Load(), m.staleResends.Load(); d != delta || f != full || s != stale {
		t.Fatalf("%s forwarded %d delta + %d full items with %d stale resends; want %d + %d, %d",
			agg.ID(), d, f, s, delta, full, stale)
	}
}

// TestFederationDeviceMovesBetweenEdges: a device that moves from edge
// A to edge B and back leaves each edge's generation for it behind; the
// root refuses the stale base and the edge resends the full table in
// the same flush, so the last forward wins and the device counts once.
func TestFederationDeviceMovesBetweenEdges(t *testing.T) {
	_, root, url := newSwitchedRoot(t)
	f := newFedFleet(t, fleetd.Key{App: "game", Platform: "note9"})
	a := f.edge(Config{ID: "agg-a", Root: url})
	b := f.edge(Config{ID: "agg-b", Root: url})

	f.upload(a, "dev-stay", devTable(1))
	f.upload(a, "dev-move", devTable(2))
	f.flush(a, root.Store(), 2)
	checkItems(t, a, 0, 2, 0)

	f.upload(a, "dev-stay", retrained(f.final["dev-stay"], 1, 10, 11))
	f.upload(b, "dev-move", retrained(f.final["dev-move"], 2, 20))
	f.flush(a, root.Store(), 1)
	f.flush(b, root.Store(), 1)
	checkItems(t, a, 1, 2, 0)
	checkItems(t, b, 0, 1, 0)

	// Back at A: A's base for dev-move is the root's generation before
	// B forwarded it.
	f.upload(a, "dev-move", retrained(f.final["dev-move"], 3, 21))
	f.flush(a, root.Store(), 1)
	checkItems(t, a, 1, 3, 1)

	// And to B again, whose base is just as stale.
	f.upload(b, "dev-move", retrained(f.final["dev-move"], 4, 22))
	f.upload(a, "dev-stay", retrained(f.final["dev-stay"], 4, 12))
	f.flush(b, root.Store(), 1)
	f.flush(a, root.Store(), 1)
	checkItems(t, b, 0, 2, 1)
	checkItems(t, a, 2, 3, 1)
	f.checkFlat(root.Store())
}

// TestFederationRootReplaced: a fresh root holds no base for any
// device, so every delta comes back stale and goes out again in full
// within the same flush.
func TestFederationRootReplaced(t *testing.T) {
	sw, root, url := newSwitchedRoot(t)
	f := newFedFleet(t, fleetd.Key{App: "game", Platform: "note9"})
	agg := f.edge(Config{ID: "agg-a", Root: url})
	for i, dev := range []string{"dev-a", "dev-b", "dev-c"} {
		f.upload(agg, dev, devTable(i+1))
	}
	f.flush(agg, root.Store(), 3)
	f.checkFlat(root.Store())

	fresh, err := fleetd.NewServer(fleetd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sw.h.Store(fresh.Handler())
	// dev-c does not re-upload yet, so the fresh root holds only the
	// others until it does.
	last := f.final["dev-c"]
	delete(f.final, "dev-c")
	delete(f.owner, "dev-c")
	f.upload(agg, "dev-a", retrained(f.final["dev-a"], 5, 10))
	meta := f.final["dev-b"].Clone()
	meta.Steps, meta.TrainedUS = meta.Steps+9, 12345
	f.upload(agg, "dev-b", meta)
	f.flush(agg, fresh.Store(), 2)
	checkItems(t, agg, 0, 5, 2)
	f.checkFlat(fresh.Store())

	// The edge learned the fresh root's instance from the last reply,
	// so dev-c's generation from the old root goes out full at once.
	f.upload(agg, "dev-c", retrained(last, 6, 31))
	f.flush(agg, fresh.Store(), 1)
	checkItems(t, agg, 0, 6, 2)
	f.checkFlat(fresh.Store())
}

// TestFederationRestartedRootReusesGenerations: a restarted root
// numbers generations afresh, so the generation an edge kept from the
// old root can match one the new root gave another edge's forward of
// the same device. The root instance in each push keeps that base from
// passing: the delta comes back stale and goes out in full.
func TestFederationRestartedRootReusesGenerations(t *testing.T) {
	sw, root, url := newSwitchedRoot(t)
	f := newFedFleet(t, fleetd.Key{App: "game", Platform: "note9"})
	a := f.edge(Config{ID: "agg-a", Root: url})
	b := f.edge(Config{ID: "agg-b", Root: url})
	first := devTable(1)
	f.upload(a, "dev-a", first)
	f.flush(a, root.Store(), 1) // generation 1 at the old root

	fresh, err := fleetd.NewServer(fleetd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sw.h.Store(fresh.Handler())
	f.upload(b, "dev-a", retrained(first, 1, 11))
	f.flush(b, fresh.Store(), 1) // generation 1 at the fresh root
	// Back at A, whose stored rows still hold state 11 as first had it:
	// a delta of state 12 on "generation 1" would keep B's state 11.
	f.upload(a, "dev-a", retrained(first, 2, 12))
	f.flush(a, fresh.Store(), 1)
	checkItems(t, a, 0, 2, 1)
	f.checkFlat(fresh.Store())
}

// TestFederationPushFailsThenDeviceUploadsAgain: a failed push returns
// its items, and a device that uploads again before the retry has both
// uploads' changes forwarded in one delta. A push the root applied but
// whose reply was lost leaves the edge a generation behind; the retry's
// delta comes back stale and is resent in full.
func TestFederationPushFailsThenDeviceUploadsAgain(t *testing.T) {
	sw, root, url := newSwitchedRoot(t)
	f := newFedFleet(t, fleetd.Key{App: "game", Platform: "note9"})
	agg := f.edge(Config{ID: "agg-a", Root: url})
	f.upload(agg, "dev-a", devTable(1))
	f.upload(agg, "dev-b", devTable(2))
	f.flush(agg, root.Store(), 2)

	for _, mode := range []int32{rootDown, rootLostReply} {
		sw.mode.Store(mode)
		f.upload(agg, "dev-a", retrained(f.final["dev-a"], 1, 10, 11))
		if _, err := agg.Flush(); err == nil {
			t.Fatalf("mode %d: flush succeeded", mode)
		}
		if p := agg.Pending(); p != 1 {
			t.Fatalf("mode %d: %d pending after a failed push, want 1", mode, p)
		}
		sw.mode.Store(rootUp)
		f.upload(agg, "dev-a", retrained(f.final["dev-a"], 2, 11, 12))
		f.flush(agg, root.Store(), 1)
	}
	checkItems(t, agg, 1, 3, 1)

	// Dropping a state can only be forwarded as the full table.
	dropped := f.final["dev-b"].Clone()
	delete(dropped.Q, core.StateKey(20))
	delete(dropped.Visits, core.StateKey(20))
	f.upload(agg, "dev-b", dropped)
	f.flush(agg, root.Store(), 1)
	checkItems(t, agg, 1, 4, 1)
	f.checkFlat(root.Store())
}

// TestFederationMetadataOnlyUpload: an upload that changes only
// Steps/TrainedUS/ConvergedAtUS still reaches the root, as a delta
// without states.
func TestFederationMetadataOnlyUpload(t *testing.T) {
	_, root, url := newSwitchedRoot(t)
	f := newFedFleet(t, fleetd.Key{App: "game", Platform: "note9"})
	agg := f.edge(Config{ID: "agg-a", Root: url})
	f.upload(agg, "dev-a", devTable(1))
	f.upload(agg, "dev-b", devTable(2))
	f.flush(agg, root.Store(), 2)
	f.checkFlat(root.Store())

	meta := f.final["dev-a"].Clone()
	meta.Steps, meta.TrainedUS, meta.ConvergedAtUS = meta.Steps+50, 999_000, 77
	f.upload(agg, "dev-a", meta)
	f.flush(agg, root.Store(), 1)
	checkItems(t, agg, 1, 2, 0)
	f.checkFlat(root.Store())
	set, _, _ := root.Store().PolicySetRef(f.k)
	if got, want := set.Primary().Steps, meta.Steps+f.final["dev-b"].Steps; got != want {
		t.Fatalf("root merged Steps = %d, want %d", got, want)
	}
	if got := set.Primary().TrainedUS; got != 999_000 {
		t.Fatalf("root merged TrainedUS = %d, want 999000", got)
	}
}

// TestRefusedReuploadKeepsAckedTable: an edge that acked a device's
// table keeps forwarding it when the device's next upload is refused.
func TestRefusedReuploadKeepsAckedTable(t *testing.T) {
	_, root, url := newSwitchedRoot(t)
	f := newFedFleet(t, fleetd.Key{App: "game", Platform: "note9"})
	agg := f.edge(Config{ID: "agg-a", Root: url})
	for round := 0; round < 2; round++ {
		f.upload(agg, "dev-a", retrained(devTable(1), round, 40))
		if _, err := f.clients[agg].UploadTable("dev-a", "note9", "game", core.NewQTable(12)); err == nil {
			t.Fatal("a 12-action re-upload into a 9-action fleet was accepted")
		}
		if p := agg.Pending(); p != 1 {
			t.Fatalf("round %d: %d pending after the refused re-upload, want 1", round, p)
		}
		f.flush(agg, root.Store(), 1)
		f.checkFlat(root.Store())
	}
	// Refused after the forward: nothing is pending and the root keeps
	// the acked table.
	if _, err := f.clients[agg].UploadTable("dev-a", "note9", "game", core.NewQTable(12)); err == nil {
		t.Fatal("a 12-action re-upload into a 9-action fleet was accepted")
	}
	f.flush(agg, root.Store(), 0)
	f.checkFlat(root.Store())
}

// TestFederationRandomSchedule runs a seeded schedule of uploads
// (retrained, grown, shrunk, metadata-only and unchanged tables),
// flushes against a root that is up, down or loses replies, and device
// moves between edges (after both have drained). After every flush
// against a healthy root the root mirrors the edge, and the final merge
// is byte-identical to the flat one.
func TestFederationRandomSchedule(t *testing.T) {
	sw, root, url := newSwitchedRoot(t)
	f := newFedFleet(t, fleetd.Key{App: "game", Platform: "note9"})
	edges := []*Server{
		f.edge(Config{ID: "agg-a", Root: url, FlushBatch: 3}),
		f.edge(Config{ID: "agg-b", Root: url, FlushBatch: 3}),
	}
	rng := rand.New(rand.NewSource(11))
	devs := make([]string, 8)
	at := make(map[string]*Server)
	for i := range devs {
		devs[i] = fmt.Sprintf("dev-%02d", i)
		at[devs[i]] = edges[i%2]
		f.upload(at[devs[i]], devs[i], devTable(i+1))
	}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			dev := devs[rng.Intn(len(devs))]
			tbl := f.final[dev]
			switch rng.Intn(5) {
			case 0:
				tbl = tbl.Clone()
				for s := range tbl.Q {
					delete(tbl.Q, s)
					if rng.Intn(2) == 0 {
						delete(tbl.Visits, s)
					}
					break
				}
			case 1:
				tbl = tbl.Clone()
				tbl.Steps++
			case 2:
			default:
				tbl = retrained(tbl, step, rng.Intn(80), rng.Intn(80))
			}
			if rng.Intn(6) == 0 {
				tbl = tbl.Clone()
				tbl.Visits[core.StateKey(900+rng.Intn(3))] = rng.Intn(4) // rowless
			}
			f.upload(at[dev], dev, tbl)
		case op < 9:
			agg := edges[rng.Intn(2)]
			mode := []int32{rootUp, rootUp, rootDown, rootLostReply}[rng.Intn(4)]
			sw.mode.Store(mode)
			_, err := agg.Flush()
			sw.mode.Store(rootUp)
			if mode == rootUp {
				if err != nil || agg.Pending() != 0 {
					t.Fatalf("step %d: healthy flush: err=%v pending=%d", step, err, agg.Pending())
				}
				f.checkMirror(root.Store(), agg)
			} else if err == nil && agg.Pending() > 0 {
				t.Fatalf("step %d: failed push reported success", step)
			}
		default:
			for _, agg := range edges {
				if _, err := agg.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			dev := devs[rng.Intn(len(devs))]
			if at[dev] == edges[0] {
				at[dev] = edges[1]
			} else {
				at[dev] = edges[0]
			}
			f.upload(at[dev], dev, f.final[dev])
		}
	}
	for _, agg := range edges {
		if _, err := agg.Flush(); err != nil {
			t.Fatal(err)
		}
		f.checkMirror(root.Store(), agg)
	}
	f.checkFlat(root.Store())
	var delta, full, stale int64
	for _, agg := range edges {
		delta += agg.Metrics().forwardedDelta.Load()
		full += agg.Metrics().forwardedFull.Load()
		stale += agg.Metrics().staleResends.Load()
	}
	if delta == 0 || full == 0 || stale == 0 {
		t.Fatalf("schedule forwarded %d delta and %d full items with %d stale resends; it misses a case", delta, full, stale)
	}
}

// TestFederationUploadDuringPush: a device that uploads while its item
// is in flight is forwarded again within the same Flush, after the
// root settled the first item: as a delta on the new generation when
// the root accepted it, in full (one resend, not a stale delta first)
// when the root refused its base.
func TestFederationUploadDuringPush(t *testing.T) {
	sw, root, url := newSwitchedRoot(t)
	f := newFedFleet(t, fleetd.Key{App: "game", Platform: "note9"})
	a := f.edge(Config{ID: "agg-a", Root: url})
	b := f.edge(Config{ID: "agg-b", Root: url})
	f.upload(a, "dev-a", devTable(1))
	f.flush(a, root.Store(), 1)

	during := func(agg *Server, step int, states ...int) {
		hook := func() { f.upload(agg, "dev-a", retrained(f.final["dev-a"], step, states...)) }
		sw.duringPush.Store(&hook)
	}
	f.upload(a, "dev-a", retrained(f.final["dev-a"], 1, 10))
	during(a, 2, 11)
	f.flush(a, root.Store(), 2)
	checkItems(t, a, 2, 1, 0)

	// Via B and back: A's base is stale when its push lands.
	f.upload(b, "dev-a", retrained(f.final["dev-a"], 3, 12))
	f.flush(b, root.Store(), 1)
	f.upload(a, "dev-a", retrained(f.final["dev-a"], 4, 13))
	during(a, 5, 14)
	f.flush(a, root.Store(), 1)
	checkItems(t, a, 2, 2, 1)
	f.checkFlat(root.Store())
}

// TestFederationConcurrentUploadsAndFlushes races device uploads
// against the background flusher and explicit flushes: whatever
// interleaving of reservations, commits, takes and settles happens, no
// change is lost — after the last flush the root mirrors the edge and
// merges to the flat policy.
func TestFederationConcurrentUploadsAndFlushes(t *testing.T) {
	_, root, url := newSwitchedRoot(t)
	k := fleetd.Key{App: "game", Platform: "note9"}
	agg, c := newEdge(t, Config{ID: "agg-a", Root: url, FlushEvery: time.Millisecond, FlushBatch: 4})
	agg.Start()
	defer agg.Close()
	const workers, perWorker, uploads = 4, 3, 40
	finals := make([]map[string]*core.QTable, workers)
	var wg sync.WaitGroup
	for w := range workers {
		finals[w] = map[string]*core.QTable{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := range uploads {
				dev := fmt.Sprintf("dev-%d-%d", w, i%perWorker)
				tbl, ok := finals[w][dev]
				if !ok {
					tbl = devTable(w*perWorker + i + 1)
				}
				tbl = retrained(tbl, i, rng.Intn(60), rng.Intn(60))
				if i%7 == 3 {
					tbl = tbl.Clone()
					for s := range tbl.Q {
						delete(tbl.Q, s) // a dropped state: the next forward is full
						break
					}
				}
				if _, err := c.UploadTable(dev, k.Platform, k.App, tbl); err != nil {
					t.Error(err)
					return
				}
				finals[w][dev] = tbl
			}
		}()
	}
	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
				agg.Flush()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-flushed
	f := newFedFleet(t, k)
	for _, m := range finals {
		for dev, tbl := range m {
			f.final[dev], f.owner[dev] = tbl, agg
		}
	}
	f.flush(agg, root.Store(), -1)
	f.checkFlat(root.Store())
}

// TestPendingHeldSlotSurvivesTake pins the queue's slot accounting
// around a flush: an upload in flight while its entry is taken keeps
// the slot, its commit is forwarded next on the generation the root
// just answered, and an abort releases the slot without touching what
// earlier uploads recorded.
func TestPendingHeldSlotSurvivesTake(t *testing.T) {
	q := newPending(1)
	pk := pendKey{key: fleetd.Key{App: "game", Platform: "note9"}, device: "dev-a"}
	other := pendKey{key: pk.key, device: "dev-b"}
	changes := func(s core.StateKey) *cloud.Changes {
		return &cloud.Changes{States: [][]core.StateKey{{s}}}
	}
	first := &cloud.Changes{Replace: true, States: [][]core.StateKey{{1}}}

	q.reserve(pk)
	q.commit(pk, first)
	q.reserve(pk) // an upload in flight across the take below
	batch := q.take(8, 5)
	if len(batch) != 1 || batch[0].base != 0 {
		t.Fatalf("first take = %+v, want one full item", batch)
	}
	if _, ok := q.reserve(other); ok || q.depth() != 1 {
		t.Fatalf("the held slot was released by the take (depth %d)", q.depth())
	}
	q.commit(pk, changes(7))
	q.accepted(batch[0], 3, 5)
	batch = q.take(8, 5)
	if len(batch) != 1 || batch[0].base != 3 || !slices.Equal(batch[0].states[0], []core.StateKey{7}) {
		t.Fatalf("second take = %+v, want a delta of state 7 on generation 3", batch)
	}
	q.accepted(batch[0], 4, 5)

	q.reserve(pk)
	q.commit(pk, changes(9))
	q.reserve(pk)
	batch = q.take(8, 5)
	q.abort(pk) // refused while the take was in flight
	if q.depth() != 0 {
		t.Fatalf("depth %d after the abort, want 0", q.depth())
	}
	q.putBack(batch) // the push failed: the change returns
	if batch = q.take(8, 5); len(batch) != 1 || batch[0].base != 4 || !slices.Equal(batch[0].states[0], []core.StateKey{9}) {
		t.Fatalf("retake = %+v, want a delta of state 9 on generation 4", batch)
	}
}
