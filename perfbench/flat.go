package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
)

// fleet-flat-10k: 10 000 devices on one policy key against a flat root.
// Devices upload over the binary wire through fleetd.DeltaUploader, each
// upload carrying the 4 states trained since the last one; a merge round
// and one policy pull follow every 250 check-ins. The load is writes and
// merges, so the merge path (O(dirty states × fleet) per round) shows.
const (
	flatDevices      = 10_000
	flatApp          = "spotify"
	flatTrainStates  = 4
	flatRoundEvery   = 250
	flatOpenLoopRate = 400 // check-ins/s
)

func runFlat(opts options) (*report, error) {
	shape := fleetShape{name: "fleet-flat-10k", rate: flatOpenLoopRate, every: flatRoundEvery, segmentRounds: 2}
	return runFleet(opts, shape, func(tr *tracer) fleetWorkload {
		return &flatFleet{seed: opts.seed, workers: opts.workers, tr: tr, ws: newWireStats()}
	})
}

type flatDevice struct {
	mu   sync.Mutex // a device runs one check-in at a time
	name string
	set  *learner.TableSet
	up   *fleetd.DeltaUploader
}

type flatFleet struct {
	seed    int64
	workers int
	tr      *tracer
	ws      *wireStats

	srv     *fleetd.Server
	ts      *httptest.Server
	client  *fleetd.Client
	devices []*flatDevice
	perm    []int

	// dirty collects the states uploads changed since the last round,
	// while tracing: the merge's dirty set seen from outside.
	dirtyMu    sync.Mutex
	dirty      map[int]bool
	dirtySizes []float64
	finalSet   *learner.TableSet
}

func (f *flatFleet) setup() error {
	srv, err := fleetd.NewServer(fleetd.Config{MaxDevicesPerKey: flatDevices + 1})
	if err != nil {
		return err
	}
	f.srv = srv
	f.ts = serve("fleetd", srv.Handler(), f.tr, f.ws)
	f.client = fleetd.NewClient(f.ts.URL)
	f.client.UseBinary = true
	f.perm = permutation(f.seed, flatDevices)
	f.dirty = make(map[int]bool)
	f.devices = make([]*flatDevice, flatDevices)
	for i := range f.devices {
		name := fmt.Sprintf("dev-%05d", i)
		f.devices[i] = &flatDevice{
			name: name,
			set:  genTable(rng(f.seed, streamTable+uint64(i))),
			up:   f.client.NewDeltaUploader(name, fleetPlat, flatApp),
		}
	}
	// Preload: every device's first (full) upload, spread over the
	// client goroutines.
	errs := make([]error, f.workers)
	var wg sync.WaitGroup
	wg.Add(f.workers)
	for w := 0; w < f.workers; w++ {
		go func() {
			defer wg.Done()
			for i := w; i < flatDevices; i += f.workers {
				d := f.devices[i]
				if _, err := d.up.Upload(d.set); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	info, err := f.client.Merge(flatApp, fleetPlat)
	if err != nil {
		return err
	}
	if info.Devices != flatDevices {
		return fmt.Errorf("first merge saw %d devices, want %d", info.Devices, flatDevices)
	}
	_, _, err = f.client.PolicySet(flatApp, fleetPlat)
	return err
}

func (f *flatFleet) checkin(k int, s *samples, late time.Duration, parent uint64) {
	d := f.devices[f.perm[k%flatDevices]]
	d.mu.Lock()
	defer d.mu.Unlock()
	states := train(d.set, rng(f.seed, streamTrain+uint64(k)), flatTrainStates)
	dur, err := call(f.tr, "client.upload", d.name, parent, func() error {
		_, err := d.up.Upload(d.set)
		return err
	})
	if s.op(err) {
		s.upload = append(s.upload, ms(late+dur))
	}
	if f.tr.enabled() {
		f.dirtyMu.Lock()
		for _, st := range states {
			f.dirty[st] = true
		}
		f.dirtyMu.Unlock()
	}
}

func (f *flatFleet) round(s *samples, late time.Duration, parent uint64) {
	if f.tr.enabled() {
		f.dirtyMu.Lock()
		f.dirtySizes = append(f.dirtySizes, float64(len(f.dirty)))
		clear(f.dirty)
		f.dirtyMu.Unlock()
	}
	var info fleetd.MergeInfo
	_, err := call(f.tr, "client.merge", "round", parent, func() error {
		var err error
		info, err = f.client.Merge(flatApp, fleetPlat)
		return err
	})
	if s.op(err) && info.Devices != flatDevices {
		s.problems = append(s.problems, fmt.Sprintf("merge round saw %d devices, want %d", info.Devices, flatDevices))
	}
	dur, err := call(f.tr, "client.policy", "round", parent, func() error {
		_, _, err := f.client.PolicySet(flatApp, fleetPlat)
		return err
	})
	if s.op(err) {
		s.policy = append(s.policy, ms(late+dur))
	}
}

func (f *flatFleet) verify(rep *report) {
	rep.attempted += 2
	info, err := f.client.Merge(flatApp, fleetPlat)
	if err != nil {
		rep.failed++
		rep.problem("final merge: %v", err)
		return
	}
	if info.Devices != flatDevices {
		rep.problem("final merge reports %d devices, want %d", info.Devices, flatDevices)
	}
	set, _, err := f.client.PolicySet(flatApp, fleetPlat)
	if err != nil {
		rep.failed++
		rep.problem("policy download: %v", err)
		return
	}
	devices := make([]*learner.TableSet, len(f.devices))
	for i, d := range f.devices {
		devices[i] = d.set
	}
	f.finalSet = set
	if err := checkMerged(set, devices); err != nil {
		rep.problem("downloaded policy is not the visit-weighted mean of the device tables: %v", err)
		return
	}
	rep.note("final merge: round %d, %d devices, %d states; policy matches the visit-weighted mean (rel. tol. %g)",
		info.Round, info.Devices, info.States, mergeTolerance)
}

func (f *flatFleet) layers(rep *report, ix *spanIndex) {
	m := rep.metrics
	m["fleetd.upload_handler_us_p50"] = median(ix.durations("fleetd.upload", time.Microsecond))
	m["http.upload_overhead_us_p50"] = median(minusChild(ix, "client.upload", "fleetd.upload", time.Microsecond))
	m["fleetd.merge_handler_ms_p50"] = median(ix.durations("fleetd.merge", time.Millisecond))
	m["fleetd.policy_handler_us_p50"] = median(ix.durations("fleetd.policy", time.Microsecond))
	m["cloud.dirty_states_per_round"] = mean(f.dirtySizes)
	m["wire.upload_B"] = f.ws.meanReq("upload")
	m["wire.policy_B"] = f.ws.meanOKResp("policy")
	f.ws.mu.Lock()
	m["fleetd.delta_fallbacks"] = float64(f.ws.status["upload"][http.StatusConflict])
	f.ws.mu.Unlock()
	if us, err := f.ws.decodeUS(); err != nil {
		rep.problem("%v", err)
	} else {
		m["core.nxtb_decode_us"] = us
	}
	if f.finalSet != nil {
		if us, err := encodeUS(flatApp, f.finalSet); err != nil {
			rep.problem("encoding the merged policy: %v", err)
		} else {
			m["core.nxtb_encode_us"] = us
		}
	}
}

func (f *flatFleet) close() {
	if f.ts != nil {
		f.ts.Close()
	}
}
