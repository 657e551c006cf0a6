package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
)

// Device tables: the Note 9 agent's 9-action space over 64 visited
// states, as the repository's fleet benches use.
const (
	fleetStates  = 64
	fleetActions = 9
	fleetPlat    = "note9"
	// mergeTolerance is the relative tolerance of the merge check: a
	// merged value may differ from the benchmark's own visit-weighted
	// mean by this share of the state's weighted mean magnitude
	// Σw·|q| / Σw. Summation order may differ (an exact-summation merge
	// must still pass), so byte identity is not required.
	mergeTolerance = 1e-9
)

// fleetWorkload is one fleet topology under load.
type fleetWorkload interface {
	// setup builds fresh servers, preloads every device and runs the
	// first merge round or epoch.
	setup() error
	// checkin runs check-in k; late is how far behind its due time the
	// generator started it.
	checkin(k int, s *samples, late time.Duration, parent uint64)
	// round runs one merge round or federation epoch.
	round(s *samples, late time.Duration, parent uint64)
	// verify runs a final round and checks the merged policies.
	verify(rep *report)
	// layers fills the per-layer metrics from the trace.
	layers(rep *report, ix *spanIndex)
	close()
}

// samples are one worker's measurements; latencies are in ms from the
// request's due time.
type samples struct {
	checkin, round, upload, policy, lateness []float64
	checkins, rounds                         int
	attempted, failed                        int64
	polls, notModified                       int64
	problems                                 []string
}

func (s *samples) op(err error) bool {
	s.attempted++
	if err != nil {
		s.failed++
		if len(s.problems) < 5 {
			s.problems = append(s.problems, err.Error())
		}
		return false
	}
	return true
}

func (s *samples) merge(o *samples) {
	s.checkin = append(s.checkin, o.checkin...)
	s.round = append(s.round, o.round...)
	s.upload = append(s.upload, o.upload...)
	s.policy = append(s.policy, o.policy...)
	s.lateness = append(s.lateness, o.lateness...)
	s.checkins += o.checkins
	s.rounds += o.rounds
	s.attempted += o.attempted
	s.failed += o.failed
	s.polls += o.polls
	s.notModified += o.notModified
	s.problems = append(s.problems, o.problems...)
}

// fleetShape is what distinguishes the two fleet workloads' traffic.
type fleetShape struct {
	name string
	// rate is the open-loop arrival rate in check-ins per second: about
	// a third of the slowest closed-loop rate seen on a 2-core host, so a
	// round holding one client does not saturate the others (README.md).
	rate float64
	// every is the check-in count between merge rounds or epochs.
	every int
	// segmentRounds sizes an open-loop segment in rounds.
	segmentRounds int
}

// driver issues the fleet's operation sequence: check-ins, with a round
// after every shape.every of them. Operation j is check-in k or the
// round that follows check-in k; k and the round cadence continue
// across phases.
type driver struct {
	w     fleetWorkload
	shape fleetShape
	tr    *tracer
	next  atomic.Int64
}

func (d *driver) decode(j int64) (k int, isRound bool) {
	block := int64(d.shape.every + 1)
	if j%block == block-1 {
		return int((j/block)*int64(d.shape.every)) + d.shape.every - 1, true
	}
	return int((j/block)*int64(d.shape.every) + j%block), false
}

// phase runs the operation sequence on workers goroutines for dur. With
// rate > 0 the loop is open: check-in k is due at k/rate after the
// phase starts, and a round is due with the check-in before it. With
// rate == 0 the loop is closed: each worker starts its next operation
// when the last one finishes.
func (d *driver) phase(workers int, rate float64, dur time.Duration) (*samples, time.Duration) {
	// Every phase starts from a collected heap, so whether a collection
	// of the set-up's garbage lands inside it does not vary by run.
	runtime.GC()
	start := time.Now()
	end := start.Add(dur)
	j0 := d.next.Load()
	k0, _ := d.decode(j0)
	due := func(k int) time.Time {
		return start.Add(time.Duration(float64(k-k0) / rate * float64(time.Second)))
	}
	all := make([]*samples, workers)
	var last atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		s := &samples{}
		all[w] = s
		go func() {
			defer wg.Done()
			for {
				j := d.next.Load()
				k, isRound := d.decode(j)
				var at time.Time
				if rate > 0 {
					at = due(k)
					if !at.Before(end) {
						return
					}
				} else if !time.Now().Before(end) {
					return
				}
				if !d.next.CompareAndSwap(j, j+1) {
					continue
				}
				if rate > 0 {
					if wait := time.Until(at); wait > 0 {
						time.Sleep(wait)
					}
				} else {
					at = time.Now()
				}
				started := time.Now()
				late := started.Sub(at)
				if isRound {
					id, done := d.tr.open("op.round", "", 0)
					d.w.round(s, late, id)
					done()
					s.round = append(s.round, ms(time.Since(at)))
					s.rounds++
				} else {
					id, done := d.tr.open("op.checkin", "", 0)
					d.w.checkin(k, s, late, id)
					done()
					s.checkin = append(s.checkin, ms(time.Since(at)))
					s.lateness = append(s.lateness, ms(late))
					s.checkins++
				}
				last.Store(int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	total := &samples{}
	for _, s := range all {
		total.merge(s)
	}
	return total, time.Duration(last.Load())
}

// runFleet is the measurement protocol both fleet workloads share.
func runFleet(opts options, shape fleetShape, newWorkload func(tr *tracer) fleetWorkload) (*report, error) {
	rep := &report{metrics: make(map[string]float64)}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
		tr.setOn(false)
	}
	workers := opts.workers

	// Set-up runs five times on fresh servers; the last one is measured.
	var setups []float64
	var w fleetWorkload
	for i := 0; i < 5; i++ {
		if w != nil {
			w.close()
			w = nil // let the collection free the previous fleet
			runtime.GC()
		}
		w = newWorkload(tr)
		start := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	d := &driver{w: w, shape: shape, tr: tr}
	total := &samples{}

	// Warm-up at the open-loop rate: not measured.
	warm, _ := d.phase(workers, shape.rate, max(500*time.Millisecond, time.Duration(0.05*opts.seconds*float64(time.Second))))
	total.merge(warm)

	// The measured time alternates open-loop segments (60%) and
	// closed-loop segments (40%), so both loops sample the whole run. An
	// open segment issues exactly shape.segmentRounds rounds' worth of
	// check-ins, so every segment holds the same number of rounds.
	// Latency percentiles, closed-loop rates and round percentiles are
	// reported by their median over segments: a burst of contention from
	// outside the benchmark moves one segment, not the result. Rounds are
	// timed in the closed loop, where enough of them run. In a traced run every
	// other closed segment runs untraced; their rates give the tracing
	// overhead.
	openDur := time.Duration(float64(shape.segmentRounds*shape.every) / shape.rate * float64(time.Second))
	n := max(1, int(math.Round(0.6*opts.seconds/openDur.Seconds())))
	if opts.trace {
		n = max(2, n)
	}
	closedDur := time.Duration(0.4 * opts.seconds / float64(n) * float64(time.Second))
	open := &samples{}
	var p50s, p90s, rates, tracedRates, round50s, round90s []float64
	rounds := 0
	for i := 0; i < n; i++ {
		tr.setOn(opts.trace)
		o, _ := d.phase(workers, shape.rate, openDur)
		open.merge(o)
		p50s = append(p50s, percentile(o.checkin, 0.5))
		p90s = append(p90s, percentile(o.checkin, 0.9))
		tracedClosed := opts.trace && i%2 == 1
		tr.setOn(tracedClosed)
		c, el := d.phase(workers, 0, closedDur)
		total.merge(c)
		if len(c.round) > 0 {
			rounds += len(c.round)
			round50s = append(round50s, percentile(c.round, 0.5))
			round90s = append(round90s, percentile(c.round, 0.9))
		}
		if tracedClosed {
			tracedRates = append(tracedRates, float64(c.checkins)/el.Seconds())
		} else {
			rates = append(rates, float64(c.checkins)/el.Seconds())
		}
	}
	tr.setOn(false)
	total.merge(open)
	heap := heapMiB()
	rate := median(rates)

	rep.note("open loop: %d segments of %d check-ins at %.0f/s, %d round(s) each; generator lateness p50 %.3f ms, p99 %.3f ms",
		n, shape.segmentRounds*shape.every, shape.rate, shape.segmentRounds, percentile(open.lateness, 0.5), percentile(open.lateness, 0.99))
	rep.note("closed loop (%d clients): %.0f check-ins/s (median of %d segments), %d rounds", workers, rate, len(rates), rounds)

	w.verify(rep)
	rep.attempted += total.attempted
	rep.failed += total.failed
	for _, p := range total.problems {
		rep.problem("during the run: %s", p)
	}

	m := rep.metrics
	if !opts.trace {
		m["setup_s"] = median(setups)
		m["heap_mb"] = heap
		m["throughput_per_s"] = rate
		m["latency_ms_p50"] = median(p50s)
		m["latency_ms_p90"] = median(p90s)
		m["round_ms_p50"] = median(round50s)
		m["round_ms_p90"] = median(round90s)
		return rep, nil
	}

	m["request.upload_ms_p50"] = percentile(open.upload, 0.5)
	m["request.upload_ms_p99"] = percentile(open.upload, 0.99)
	m["request.policy_ms_p50"] = percentile(open.policy, 0.5)
	m["request.policy_ms_p99"] = percentile(open.policy, 0.99)
	m["generator.lateness_ms_p50"] = percentile(open.lateness, 0.5)
	m["generator.lateness_ms_p99"] = percentile(open.lateness, 0.99)
	if open.polls > 0 {
		m["policy.not_modified_ratio"] = float64(open.notModified) / float64(open.polls)
	}
	ix := tr.index()
	m["trace.coverage"] = ix.coverage("op.checkin", "op.round")
	m["trace.overhead_frac"] = rate/median(tracedRates) - 1
	m["failed_ratio"] = float64(rep.failed) / float64(rep.attempted)
	w.layers(rep, ix)
	rep.note("ledger: layer spans explain %.0f%% of traced operation wall time", 100*m["trace.coverage"])
	if m["trace.coverage"] < 0.8 {
		rep.note("WARNING: trace coverage below 0.8; the stage breakdown does not explain the cycle")
	}
	rep.note("tracing overhead: closed loop %.0f/s untraced vs %.0f/s traced", rate, median(tracedRates))
	path, err := tr.write(shape.name, opts.seed)
	if err != nil {
		return nil, err
	}
	rep.note("spans written to %s", path)
	return rep, nil
}

// ---- generated inputs ----

// rng returns the generator stream for (seed, stream): the same seed
// always produces the same tables, permutations and training steps.
func rng(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Stream numbers, kept apart so the inputs do not correlate.
const (
	streamTable = 1 << 40 // + device index
	streamPerm  = 1 << 41
	streamTrain = 1 << 42 // + check-in index
)

func genTable(r *rand.Rand) *learner.TableSet {
	t := core.NewQTable(fleetActions)
	for s := 0; s < fleetStates; s++ {
		row := make([]float64, fleetActions)
		for a := range row {
			row[a] = r.NormFloat64()
		}
		t.Q[core.StateKey(s)] = row
		t.Visits[core.StateKey(s)] = r.IntN(200) + 1
	}
	t.Steps = int64(r.IntN(10000))
	return learner.SingleTableSet(t)
}

// train applies a device's learning since its last upload: n distinct
// states move their values and gain visits. It returns the states.
func train(set *learner.TableSet, r *rand.Rand, n int) []int {
	t := set.Primary()
	states := r.Perm(fleetStates)[:n]
	for _, s := range states {
		k := core.StateKey(s)
		for a := range t.Q[k] {
			t.Q[k][a] += 0.1 * r.NormFloat64()
		}
		t.Visits[k] += 1 + r.IntN(20)
	}
	t.Steps += int64(n)
	return states
}

// checkMerged compares a merged policy with the visit-weighted mean of
// the devices' tables, computed here from the generated inputs.
func checkMerged(got *learner.TableSet, devices []*learner.TableSet) error {
	if got == nil || got.Primary() == nil {
		return fmt.Errorf("empty merged policy")
	}
	g := got.Primary()
	type acc struct {
		w        int
		sum, mag []float64
	}
	accs := make(map[core.StateKey]*acc)
	for _, set := range devices {
		t := set.Primary()
		for s, row := range t.Q {
			a := accs[s]
			if a == nil {
				a = &acc{sum: make([]float64, len(row)), mag: make([]float64, len(row))}
				accs[s] = a
			}
			w := t.Visits[s]
			if w <= 0 {
				w = 1
			}
			a.w += w
			for i, v := range row {
				a.sum[i] += float64(w) * v
				a.mag[i] += float64(w) * math.Abs(v)
			}
		}
	}
	if len(g.Q) != len(accs) {
		return fmt.Errorf("merged policy has %d states, the devices trained %d", len(g.Q), len(accs))
	}
	for s, a := range accs {
		row, ok := g.Q[s]
		if !ok || len(row) != len(a.sum) {
			return fmt.Errorf("state %d missing or resized in the merged policy", s)
		}
		if g.Visits[s] != a.w {
			return fmt.Errorf("state %d: merged weight %d, devices' visits sum to %d", s, g.Visits[s], a.w)
		}
		for i := range row {
			want := a.sum[i] / float64(a.w)
			if math.Abs(row[i]-want) > mergeTolerance*a.mag[i]/float64(a.w) {
				return fmt.Errorf("state %d action %d: merged %.17g, visit-weighted mean %.17g", s, i, row[i], want)
			}
		}
	}
	return nil
}

// ---- layer wrappers ----

// wireStats counts what a wrapped handler saw, per route.
type wireStats struct {
	mu        sync.Mutex
	requests  map[string]int
	reqBytes  map[string]int64
	okResps   map[string]int
	respBytes map[string]int64
	status    map[string]map[int]int
	bodies    []capturedBody
}

type capturedBody struct {
	contentType string
	data        []byte
}

const maxCapturedBodies = 1024

func newWireStats() *wireStats {
	return &wireStats{requests: map[string]int{}, reqBytes: map[string]int64{}, okResps: map[string]int{},
		respBytes: map[string]int64{}, status: map[string]map[int]int{}}
}

func (ws *wireStats) meanReq(route string) float64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.requests[route] == 0 {
		return 0
	}
	return float64(ws.reqBytes[route]) / float64(ws.requests[route])
}

func (ws *wireStats) meanOKResp(route string) float64 {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.okResps[route] == 0 {
		return 0
	}
	return float64(ws.respBytes[route]) / float64(ws.okResps[route])
}

// decodeUS times fleetd.DecodeTableSet on the captured upload bodies.
func (ws *wireStats) decodeUS() (float64, error) {
	ws.mu.Lock()
	bodies := ws.bodies
	ws.mu.Unlock()
	if len(bodies) == 0 {
		return 0, nil
	}
	start := time.Now()
	for _, b := range bodies {
		if _, _, _, err := fleetd.DecodeTableSet(b.contentType, b.data); err != nil {
			return 0, fmt.Errorf("captured upload does not decode: %w", err)
		}
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / float64(len(bodies)), nil
}

// layerHandler wraps a tier's http.Handler: while tracing is on, each
// request becomes a span named <tier>.<route> whose parent is the span
// that caused it, found through the request's device (or "round" for
// merges and federation pushes).
type layerHandler struct {
	tier  string
	inner http.Handler
	tr    *tracer
	ws    *wireStats
}

// recorder captures the status and body size a handler writes.
type recorder struct {
	http.ResponseWriter
	status int
	n      int
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.n += n
	return n, err
}

func (h *layerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.enabled() {
		h.inner.ServeHTTP(w, r)
		return
	}
	route := strings.TrimPrefix(r.URL.Path, "/v1/")
	if route == "table" {
		route = "upload"
	}
	// The body is buffered before the handler span opens, so handler
	// time excludes reading the request off the connection.
	body, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	key := r.URL.Query().Get("device")
	if route == "checkin" {
		var req fleetd.CheckinRequest
		if json.Unmarshal(body, &req) == nil {
			key = req.Device
		}
	}
	if key == "" {
		key = "round"
	}
	rec := &recorder{ResponseWriter: w, status: http.StatusOK}
	_, done := h.tr.open(h.tier+"."+route, key, 0)
	h.inner.ServeHTTP(rec, r)
	done()

	ws := h.ws
	ws.mu.Lock()
	ws.requests[route]++
	ws.reqBytes[route] += int64(len(body))
	if rec.status == http.StatusOK {
		ws.okResps[route]++
		ws.respBytes[route] += int64(rec.n)
	}
	if ws.status[route] == nil {
		ws.status[route] = map[int]int{}
	}
	ws.status[route][rec.status]++
	if route == "upload" && len(ws.bodies) < maxCapturedBodies {
		ws.bodies = append(ws.bodies, capturedBody{r.Header.Get("Content-Type"), body})
	}
	ws.mu.Unlock()
}

// serve starts a loopback HTTP server for a tier, wrapped when tracing.
func serve(tier string, h http.Handler, tr *tracer, ws *wireStats) *httptest.Server {
	if tr != nil {
		h = &layerHandler{tier: tier, inner: h, tr: tr, ws: ws}
	}
	return httptest.NewServer(h)
}

// call runs one client request under a span keyed by the device (or
// "round"), so the handler it reaches can find its parent.
func call(tr *tracer, name, key string, parent uint64, fn func() error) (time.Duration, error) {
	_, done := tr.open(name, key, parent)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	done()
	return d, err
}

// minusChild returns, for every span named name that has children named
// child, its duration minus theirs, in unit.
func minusChild(ix *spanIndex, name, child string, unit time.Duration) []float64 {
	var out []float64
	for _, i := range ix.byName[name] {
		c, ok := ix.childTime(i, child)
		if !ok {
			continue
		}
		out = append(out, float64(ix.spans[i].dur()-c)/float64(unit))
	}
	return out
}

// perRoot sums, for every span named root, the durations of its
// descendants named name, in unit.
func perRoot(ix *spanIndex, root, name string, unit time.Duration) []float64 {
	var out []float64
	for _, i := range ix.byName[root] {
		var sum int64
		stack := []uint64{ix.spans[i].ID}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, c := range ix.children[id] {
				if ix.spans[c].Name == name {
					sum += ix.spans[c].dur()
				}
				stack = append(stack, ix.spans[c].ID)
			}
		}
		out = append(out, float64(sum)/float64(unit))
	}
	return out
}

// encodeUS times fleetd.EncodePolicy (binary) on a merged policy.
func encodeUS(app string, set *learner.TableSet) (float64, error) {
	const reps = 200
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, _, err := fleetd.EncodePolicy(app, set, true); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start)) / float64(time.Microsecond) / reps, nil
}

// permutation is the seed's device visiting order.
func permutation(seed int64, n int) []int {
	return rng(seed, streamPerm).Perm(n)
}
