package main

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"time"

	"nextdvfs/internal/aggregator"
	"nextdvfs/internal/cloud"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/rollout"
)

// fleet-edge-reads: 2 edge aggregators over a rollout-enabled root,
// serving 8 app keys × 256 devices. A check-in is POST /v1/checkin plus
// an ETag policy poll the aggregator proxies to the root; one check-in
// in four also uploads a full binary table. A federation epoch runs
// every 512 check-ins. The load is mostly reads through the codec,
// HTTP, proxy and rollout layers, and each merge is small.
const (
	edgeAggs         = 2
	edgeDevicesKey   = 256
	edgeTrainStates  = 4
	edgeEpochEvery   = 512
	edgeUploadEvery  = 4
	edgeOpenLoopRate = 300 // check-ins/s
)

var edgeApps = []string{"home", "facebook", "spotify", "chrome", "lineage2revolution", "pubgmobile", "youtube", "camera"}

const edgeDevices = edgeDevicesKey * 8

func runEdge(opts options) (*report, error) {
	shape := fleetShape{name: "fleet-edge-reads", rate: edgeOpenLoopRate, every: edgeEpochEvery, segmentRounds: 1}
	return runFleet(opts, shape, func(tr *tracer) fleetWorkload {
		return &edgeFleet{seed: opts.seed, workers: opts.workers, tr: tr, rootWS: newWireStats(), aggWS: newWireStats()}
	})
}

type edgeDevice struct {
	mu   sync.Mutex
	name string
	app  string
	agg  int
	set  *learner.TableSet
	etag string
}

type edgeFleet struct {
	seed          int64
	workers       int
	tr            *tracer
	rootWS, aggWS *wireStats

	root       *fleetd.Server
	rootTS     *httptest.Server
	rootClient *fleetd.Client
	aggs       []*aggregator.Server
	aggTS      []*httptest.Server
	aggClients []*fleetd.Client
	devices    []*edgeDevice
	perm       []int
	finalSet   *learner.TableSet
}

func (f *edgeFleet) setup() error {
	root, err := fleetd.NewServer(fleetd.Config{Rollout: &rollout.Config{}})
	if err != nil {
		return err
	}
	f.root = root
	f.rootTS = serve("fleetd", root.Handler(), f.tr, f.rootWS)
	f.rootClient = fleetd.NewClient(f.rootTS.URL)
	f.rootClient.UseBinary = true
	for a := 0; a < edgeAggs; a++ {
		agg, err := aggregator.New(aggregator.Config{
			ID:   fmt.Sprintf("edge-%d", a),
			Root: f.rootTS.URL,
			// Federation runs only in the benchmark's epochs.
			FlushEvery: -1,
		})
		if err != nil {
			return err
		}
		agg.Start()
		ts := serve("aggregator", agg.Handler(), f.tr, f.aggWS)
		c := fleetd.NewClient(ts.URL)
		c.UseBinary = true
		f.aggs = append(f.aggs, agg)
		f.aggTS = append(f.aggTS, ts)
		f.aggClients = append(f.aggClients, c)
	}
	f.perm = permutation(f.seed, edgeDevices)
	f.devices = make([]*edgeDevice, edgeDevices)
	for i := range f.devices {
		f.devices[i] = &edgeDevice{
			name: fmt.Sprintf("dev-%05d", i),
			app:  edgeApps[i%len(edgeApps)],
			agg:  (i / len(edgeApps)) % edgeAggs,
			set:  genTable(rng(f.seed, streamTable+uint64(i))),
		}
	}
	errs := make([]error, f.workers)
	var wg sync.WaitGroup
	wg.Add(f.workers)
	for w := 0; w < f.workers; w++ {
		go func() {
			defer wg.Done()
			for i := w; i < edgeDevices; i += f.workers {
				d := f.devices[i]
				c := f.aggClients[d.agg]
				if _, err := c.Checkin(d.name, fleetPlat); err != nil {
					errs[w] = err
					return
				}
				if _, err := c.UploadTableSet(d.name, fleetPlat, d.app, d.set); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	s := &samples{}
	f.round(s, 0, 0)
	if len(s.problems) > 0 {
		return errors.New(strings.Join(s.problems, "; "))
	}
	return nil
}

func (f *edgeFleet) checkin(k int, s *samples, late time.Duration, parent uint64) {
	d := f.devices[f.perm[k%edgeDevices]]
	d.mu.Lock()
	defer d.mu.Unlock()
	c := f.aggClients[d.agg]
	_, err := call(f.tr, "client.checkin", d.name, parent, func() error {
		_, err := c.Checkin(d.name, fleetPlat)
		return err
	})
	s.op(err)

	var meta fleetd.PolicyMeta
	var changed bool
	dur, err := call(f.tr, "client.policy", d.name, parent, func() error {
		var err error
		_, meta, changed, err = c.PolicyForDevice(d.name, d.app, fleetPlat, d.etag)
		return err
	})
	if s.op(err) {
		s.policy = append(s.policy, ms(late+dur))
		s.polls++
		if changed {
			d.etag = meta.ETag
		} else {
			s.notModified++
		}
	}

	// One check-in in four uploads; the offset by k/edgeDevices rotates
	// which devices upload from one pass over the fleet to the next.
	if (k+k/edgeDevices)%edgeUploadEvery != 0 {
		return
	}
	train(d.set, rng(f.seed, streamTrain+uint64(k)), edgeTrainStates)
	dur, err = call(f.tr, "client.upload", d.name, parent, func() error {
		_, err := c.UploadTableSet(d.name, fleetPlat, d.app, d.set)
		return err
	})
	if s.op(err) {
		s.upload = append(s.upload, ms(late+dur))
	}
}

// round is one federation epoch: every aggregator merges each key
// locally, flushes its queued tables to the root (NXTF), and the root
// merges every key, minting a rollout artifact.
func (f *edgeFleet) round(s *samples, _ time.Duration, parent uint64) {
	for _, a := range f.aggs {
		for _, app := range edgeApps {
			_, err := call(f.tr, "aggregator.local_merge", "round", parent, func() error {
				_, err := a.MergeLocal(fleetd.Key{App: app, Platform: fleetPlat})
				return err
			})
			s.op(err)
		}
	}
	for _, a := range f.aggs {
		_, err := call(f.tr, "aggregator.flush", "round", parent, func() error {
			_, err := a.Flush()
			return err
		})
		s.op(err)
	}
	for _, app := range edgeApps {
		var info fleetd.MergeInfo
		_, err := call(f.tr, "client.merge", "round", parent, func() error {
			var err error
			info, err = f.rootClient.Merge(app, fleetPlat)
			return err
		})
		if s.op(err) && info.Devices != edgeDevicesKey {
			s.problems = append(s.problems, fmt.Sprintf("root merge of %s saw %d devices, want %d", app, info.Devices, edgeDevicesKey))
		}
	}
}

func (f *edgeFleet) verify(rep *report) {
	s := &samples{}
	f.round(s, 0, 0)
	rep.attempted += s.attempted
	rep.failed += s.failed
	for _, p := range s.problems {
		rep.problem("final epoch: %s", p)
	}
	for i, a := range f.aggs {
		if n := a.Pending(); n != 0 {
			rep.problem("aggregator %d still holds %d tables after the final flush", i, n)
		}
	}
	byApp := make(map[string][]*learner.TableSet)
	for _, d := range f.devices {
		byApp[d.app] = append(byApp[d.app], d.set)
	}
	downloads := 0
	for _, app := range edgeApps {
		key := fleetd.Key{App: app, Platform: fleetPlat}.String()
		rep.attempted++
		info, err := f.rootClient.Merge(app, fleetPlat)
		if err != nil {
			rep.failed++
			rep.problem("final merge of %s: %v", app, err)
			continue
		}
		if info.Devices != edgeDevicesKey {
			rep.problem("final merge of %s reports %d devices, want %d", app, info.Devices, edgeDevicesKey)
		}
		art, ok := f.root.Rollout().Version(key, info.Version)
		if !ok {
			rep.problem("%s: the final merge's artifact v%d is not in the rollout store", key, info.Version)
			continue
		}
		if err := checkMerged(art.Set, byApp[app]); err != nil {
			rep.problem("%s artifact v%d is not the visit-weighted mean of the device tables: %v", key, info.Version, err)
		}
		f.finalSet = art.Set
		// Download the policy through an aggregator as a device whose
		// cohort resolves to the final artifact.
		for _, d := range f.devices {
			rep.attempted++
			set, meta, _, err := f.aggClients[d.agg].PolicyForDevice(d.name, app, fleetPlat, "")
			if err != nil {
				rep.failed++
				rep.problem("%s download: %v", key, err)
				break
			}
			if meta.Version != info.Version {
				continue
			}
			if err := checkMerged(set, byApp[app]); err != nil {
				rep.problem("%s downloaded policy v%d is not the visit-weighted mean: %v", key, meta.Version, err)
			}
			downloads++
			break
		}
	}
	if downloads != len(edgeApps) {
		rep.problem("only %d of %d keys served their final artifact to any device", downloads, len(edgeApps))
	}
	if len(rep.problems) == 0 {
		rep.note("final epoch: %d keys x %d devices merged at the root; artifacts and downloads match the visit-weighted mean (rel. tol. %g)",
			len(edgeApps), edgeDevicesKey, mergeTolerance)
	}
}

func (f *edgeFleet) layers(rep *report, ix *spanIndex) {
	m := rep.metrics
	m["aggregator.upload_handler_us_p50"] = median(ix.durations("aggregator.upload", time.Microsecond))
	m["http.upload_overhead_us_p50"] = median(minusChild(ix, "client.upload", "aggregator.upload", time.Microsecond))
	m["aggregator.policy_proxy_us_p50"] = median(minusChild(ix, "aggregator.policy", "fleetd.policy", time.Microsecond))
	m["fleetd.policy_handler_us_p50"] = median(ix.durations("fleetd.policy", time.Microsecond))
	m["fleetd.merge_handler_ms_p50"] = median(ix.durations("fleetd.merge", time.Millisecond))
	m["aggregator.local_merge_ms"] = median(perRoot(ix, "op.round", "aggregator.local_merge", time.Millisecond))
	m["aggregator.flush_ms"] = median(perRoot(ix, "op.round", "aggregator.flush", time.Millisecond))
	m["fleetd.federate_handler_ms"] = median(perRoot(ix, "op.round", "fleetd.federate", time.Millisecond))
	m["fleetd.root_merge_ms"] = median(perRoot(ix, "op.round", "fleetd.merge", time.Millisecond))
	m["wire.upload_B"] = f.aggWS.meanReq("upload")
	m["wire.policy_B"] = f.aggWS.meanOKResp("policy")
	if epochs := len(ix.byName["op.round"]); epochs > 0 {
		f.rootWS.mu.Lock()
		m["wire.nxtf_B_per_epoch"] = float64(f.rootWS.reqBytes["federate"]) / float64(epochs)
		f.rootWS.mu.Unlock()
	}
	for _, a := range f.aggs {
		m["aggregator.forwarded"] += float64(a.Metrics().Forwarded())
		m["aggregator.rejected"] += float64(a.Metrics().Rejected())
	}
	if us, err := f.aggWS.decodeUS(); err != nil {
		rep.problem("%v", err)
	} else {
		m["core.nxtb_decode_us"] = us
	}
	if f.finalSet == nil {
		return
	}
	if us, err := encodeUS(edgeApps[len(edgeApps)-1], f.finalSet); err != nil {
		rep.problem("encoding the merged policy: %v", err)
	} else {
		m["core.nxtb_encode_us"] = us
	}

	// Direct rollout calls: cohort resolution for every device and key,
	// and artifact minting from a merged set.
	mgr := f.root.Rollout()
	start := time.Now()
	n := 0
	for _, app := range edgeApps {
		key := fleetd.Key{App: app, Platform: fleetPlat}.String()
		for _, d := range f.devices {
			if _, _, ok := mgr.Resolve(key, d.name); !ok {
				rep.problem("rollout resolves no artifact for %s", key)
				return
			}
			n++
		}
	}
	m["rollout.resolve_ns"] = float64(time.Since(start)) / float64(n)
	var arts []float64
	for i := 0; i < 20; i++ {
		t := time.Now()
		if _, err := cloud.NewArtifact(f.finalSet, int64(i+1), edgeDevicesKey); err != nil {
			rep.problem("minting an artifact: %v", err)
			return
		}
		arts = append(arts, ms(time.Since(t)))
	}
	m["rollout.artifact_ms"] = median(arts)
}

func (f *edgeFleet) close() {
	for i, a := range f.aggs {
		f.aggTS[i].Close()
		a.Close()
	}
	if f.rootTS != nil {
		f.rootTS.Close()
	}
}
