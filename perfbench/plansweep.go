package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"time"

	"nextdvfs/internal/batch"
	"nextdvfs/internal/core"
	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/exp"
	"nextdvfs/internal/governor"
	"nextdvfs/internal/plan"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/power"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/sim"
)

// The plan-sweep input size: 2 scenarios × 2 platforms × every scheme,
// the agent scheme training with the paper's learner, each scenario
// scaled to planScale of its length. One sweep trains and simulates
// about 14M ticks, a few seconds of host time on two cores.
const (
	planScale = 0.2
	// planDigestSeeds is how many distinct plan seeds the benchmark
	// seed maps onto; plan_digests.json records the row digest of each,
	// so every seed's output is checked against a recorded value.
	planDigestSeeds = 16
	// planAnalyzeReps is how many times each sweep's result file is
	// re-read and analysed, the request `nextplan analyze` serves.
	planAnalyzeReps = 250
	planDigestFile  = "perfbench/plan_digests.json"
)

var (
	planScenarios = []string{"doomscroll", "gaming-marathon"}
	planPlatforms = []string{"note9", "sd855"}
	// planProvenance pins the row stamp so neither git describe nor the
	// host name enters the digest.
	planProvenance = plan.Provenance{Git: "perfbench", Host: "perfbench"}
)

func planSeed(seed int64) int64 {
	m := seed % planDigestSeeds
	if m < 0 {
		m += planDigestSeeds
	}
	return 1 + m
}

// planDoc is the plan file the seed generates.
func planDoc(seed int64) []byte {
	doc := map[string]any{
		"name":           "perfbench-plan-sweep",
		"seed":           planSeed(seed),
		"duration_scale": planScale,
		"slo":            map[string]any{"min_active_fps": 30, "max_big_temp_c": 80, "max_drop_rate_pct": 20},
		"grid": map[string]any{
			"scenarios": planScenarios,
			"platforms": planPlatforms,
			"schemes":   exp.Schemes(),
			"learners":  []string{"watkins"},
		},
	}
	data, err := json.Marshal(doc)
	if err != nil { // plain maps of strings and numbers
		panic(err)
	}
	return data
}

// planInput is the loaded plan plus the tick counts its cells will
// simulate, worked out by compiling every timeline the sweep runs.
type planInput struct {
	p                     *plan.Plan
	cells                 []plan.CellConfig
	trainTicks, evalTicks int64
	evalTicksByPlatform   map[string]int64
	compile               time.Duration
}

func loadPlan(seed int64) (*planInput, error) {
	p, err := plan.Parse(planDoc(seed))
	if err != nil {
		return nil, err
	}
	in := &planInput{p: p, cells: p.Cells(), evalTicksByPlatform: make(map[string]int64)}
	start := time.Now()
	for _, c := range in.cells {
		scn := scenario.Scaled(scenario.MustGet(c.Scenario), c.Scale)
		plat := platform.MustGet(c.Platform)
		spec, err := exp.GetScheme(c.Scheme)
		if err != nil {
			return nil, err
		}
		// exp.Cell's seed derivation: training sessions at Seed+1…Seed+n,
		// the evaluation timeline at Seed+500.
		ticks := func(seed int64) (int64, error) {
			compiled, err := scenario.Compile(scn, seed, plat.AmbientC)
			if err != nil {
				return 0, err
			}
			return compiled.Timeline.DurUS() / 1000, nil
		}
		if spec.TrainsAgent {
			n := c.Train
			if n <= 0 {
				n = 6
			}
			for i := 1; i <= n; i++ {
				t, err := ticks(c.Seed + int64(i))
				if err != nil {
					return nil, err
				}
				in.trainTicks += t
			}
		}
		t, err := ticks(c.Seed + 500)
		if err != nil {
			return nil, err
		}
		in.evalTicks += t
		in.evalTicksByPlatform[c.Platform] += t
	}
	in.compile = time.Since(start)
	return in, nil
}

func recordedDigest(seed int64) (string, error) {
	data, err := os.ReadFile(planDigestFile)
	if err != nil {
		return "", err
	}
	var digests map[string]string
	if err := json.Unmarshal(data, &digests); err != nil {
		return "", fmt.Errorf("parsing %s: %w", planDigestFile, err)
	}
	d, ok := digests[strconv.FormatInt(planSeed(seed), 10)]
	if !ok {
		return "", fmt.Errorf("%s has no digest for plan seed %d", planDigestFile, planSeed(seed))
	}
	return d, nil
}

func fileDigest(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// sweep runs plan.Run once into a fresh result file and returns its
// wall time and row digest.
func sweep(in *planInput, path string, workers int) (time.Duration, string, error) {
	start := time.Now()
	_, err := plan.Run(in.p, path, plan.RunOptions{Parallel: workers, Lockstep: true, Fresh: true, Provenance: &planProvenance})
	wall := time.Since(start)
	if err != nil {
		return wall, "", err
	}
	digest, err := fileDigest(path)
	return wall, digest, err
}

// analyze is the read side of the workbench: re-read the result file
// and judge every row against the SLO.
func analyze(in *planInput, path string) error {
	rows, err := plan.ReadRows(path)
	if err != nil {
		return err
	}
	a := plan.Analyze(in.p, rows)
	if a.Rows != len(in.cells) || len(a.Missing) > 0 {
		return fmt.Errorf("analysis saw %d of %d rows", a.Rows, len(in.cells))
	}
	a.WriteText(io.Discard)
	return nil
}

func runPlanSweep(opts options) (*report, error) {
	rep := &report{metrics: make(map[string]float64)}
	want, err := recordedDigest(opts.seed)
	if err != nil {
		return nil, err
	}
	dir, err := workDir("plan")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "results.jsonl")

	// Set-up: parse and validate the plan, compile every timeline.
	var setups []float64
	var in *planInput
	for i := 0; i < 101; i++ {
		start := time.Now()
		in, err = loadPlan(opts.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ticks := float64(in.trainTicks + in.evalTicks)
	rep.note("plan seed %d: %d cells, %d training + %d evaluation ticks per sweep, %d workers",
		in.p.Seed, len(in.cells), in.trainTicks, in.evalTicks, opts.workers)

	checkSweep := func(digest string, err error) bool {
		rep.attempted += int64(len(in.cells))
		if err != nil {
			rep.failed += int64(len(in.cells))
			rep.problem("sweep failed: %v", err)
			return false
		}
		if digest != want {
			rep.problem("result rows digest %s, recorded %s", digest, want)
			return false
		}
		return true
	}

	if opts.trace {
		return tracePlanSweep(opts, rep, in, path, checkSweep)
	}

	// Analyze latency percentiles are taken per batch (one batch after
	// each sweep) and reported by their median over batches, so a burst
	// of contention from outside the benchmark moves one batch only.
	var rates, rounds, p50s, p90s []float64
	analyses := 0
	start := time.Now()
	for len(rounds) < 3 || time.Since(start).Seconds() < opts.seconds {
		wall, digest, err := sweep(in, path, opts.workers)
		if !checkSweep(digest, err) {
			break
		}
		rates = append(rates, ticks/wall.Seconds())
		rounds = append(rounds, ms(wall))
		// The analyses start from a collected heap, not the sweep's garbage.
		runtime.GC()
		var lat []float64
		for k := 0; k < planAnalyzeReps; k++ {
			t := time.Now()
			rep.attempted++
			if err := analyze(in, path); err != nil {
				rep.failed++
				rep.problem("analyze: %v", err)
				break
			}
			lat = append(lat, ms(time.Since(t)))
		}
		analyses += len(lat)
		p50s = append(p50s, percentile(lat, 0.5))
		p90s = append(p90s, percentile(lat, 0.9))
	}
	rep.note("%d sweeps, %d analyses", len(rounds), analyses)
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["heap_mb"] = heapMiB()
	rep.metrics["throughput_per_s"] = median(rates)
	rep.metrics["latency_ms_p50"] = median(p50s)
	rep.metrics["latency_ms_p90"] = median(p90s)
	rep.metrics["round_ms_p50"] = percentile(rounds, 0.5)
	rep.metrics["round_ms_p90"] = percentile(rounds, 0.9)
	return rep, nil
}

// planJobs builds the sweep's batch jobs exactly as plan.Run does:
// one exp.Cell job per grid cell, every cell of a (scenario, platform)
// pair sharing one lockstep key.
func planJobs(cells []plan.CellConfig) ([]batch.Job, error) {
	jobs := make([]batch.Job, 0, len(cells))
	for _, c := range cells {
		ec := exp.Cell{
			Scenario: c.Scenario, Platform: c.Platform, Scheme: c.Scheme,
			Learner: c.Learner, Explorer: c.Explorer, Seed: c.Seed,
			TrainSessions: c.Train, DurationScale: c.Scale,
		}
		job, err := ec.Job(fmt.Sprintf("plan|%s|%s|%d", c.Scenario, c.Platform, c.Seed))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// runGroups runs the jobs the way batch.Run schedules them — each run
// of consecutive jobs sharing a lockstep key is one unit, units fan out
// over the worker pool — but calls batch.Run once per unit, so each
// unit's wall time is visible from outside.
func runGroups(jobs []batch.Job, workers int, onGroup func(g int, start, end time.Time)) ([]batch.RunResult, int) {
	var groups [][2]int
	for i := 0; i < len(jobs); {
		j := i + 1
		for j < len(jobs) && jobs[j].LockstepKey == jobs[i].LockstepKey {
			j++
		}
		groups = append(groups, [2]int{i, j})
		i = j
	}
	results := make([]batch.RunResult, len(jobs))
	batch.Map(len(groups), workers, func(g int) {
		a, b := groups[g][0], groups[g][1]
		start := time.Now()
		copy(results[a:b], batch.Run(jobs[a:b], batch.Options{Parallel: 1}))
		if onGroup != nil {
			onGroup(g, start, time.Now())
		}
	})
	return results, len(groups)
}

// laneStats is what the wrappers of one job record. A lane runs on one
// worker goroutine, so its counters need no synchronization.
type laneStats struct {
	builds                  [][2]time.Time
	decideCalls, decideNS   int64
	agent                   bool // the controller is the Next agent (core.Agent)
	observeCalls, observeNS int64
	controlCalls, controlNS int64
}

// timedGovernor times Decide on a wrapped governor.Governor.
type timedGovernor struct {
	governor.Governor
	st *laneStats
}

func (g *timedGovernor) Decide(nowUS int64, obs []governor.Observation) {
	t := time.Now()
	g.Governor.Decide(nowUS, obs)
	g.st.decideNS += int64(time.Since(t))
	g.st.decideCalls++
}

// timedBooster keeps touch boost: the engines type-assert the
// configured governor to governor.InputBooster, so a wrapper of a
// boosting governor must still be one.
type timedBooster struct {
	*timedGovernor
	boost governor.InputBooster
}

func (g timedBooster) OnInput(nowUS int64) { g.boost.OnInput(nowUS) }

func wrapGovernor(g governor.Governor, st *laneStats) governor.Governor {
	tg := &timedGovernor{Governor: g, st: st}
	if b, ok := g.(governor.InputBooster); ok {
		return timedBooster{timedGovernor: tg, boost: b}
	}
	return tg
}

// timedController times Observe and Control on a wrapped
// ctrl.Controller.
type timedController struct {
	ctrl.Controller
	st *laneStats
}

func (c *timedController) Observe(snap ctrl.Snapshot) {
	t := time.Now()
	c.Controller.Observe(snap)
	c.st.observeNS += int64(time.Since(t))
	c.st.observeCalls++
}

func (c *timedController) Control(snap ctrl.Snapshot, act ctrl.Actuator) {
	t := time.Now()
	c.Controller.Control(snap, act)
	c.st.controlNS += int64(time.Since(t))
	c.st.controlCalls++
}

// traceJob wraps a job's Build: the build (agent training plus config
// assembly) is timed, and the governor and controller of the config it
// returns are wrapped.
func traceJob(job batch.Job, st *laneStats) batch.Job {
	build := job.Build
	job.Build = func() (sim.Config, error) {
		start := time.Now()
		cfg, err := build()
		st.builds = append(st.builds, [2]time.Time{start, time.Now()})
		if err != nil {
			return cfg, err
		}
		cfg.Governor = wrapGovernor(cfg.Governor, st)
		if cfg.Controller != nil {
			_, st.agent = cfg.Controller.(*core.Agent)
			cfg.Controller = &timedController{Controller: cfg.Controller, st: st}
		}
		return cfg, nil
	}
	return job
}

func tracePlanSweep(opts options, rep *report, in *planInput, path string, checkSweep func(string, error) bool) (*report, error) {
	m := rep.metrics
	m["scenario.compile_ms"] = ms(in.compile)

	// The untraced sweep as users run it: rows, digest, and the append
	// and analyze stages of the workbench on its rows.
	_, digest, err := sweep(in, path, opts.workers)
	if !checkSweep(digest, err) {
		return rep, nil
	}
	rows, err := plan.ReadRows(path)
	if err != nil {
		return nil, err
	}
	var appends, analyses []float64
	scratch := path + ".append"
	for k := 0; k < planAnalyzeReps; k++ {
		os.Remove(scratch)
		t := time.Now()
		if err := plan.AppendRows(scratch, rows); err != nil {
			return nil, err
		}
		appends = append(appends, ms(time.Since(t)))
		t = time.Now()
		rep.attempted++
		if err := analyze(in, path); err != nil {
			rep.failed++
			rep.problem("analyze: %v", err)
		}
		analyses = append(analyses, ms(time.Since(t)))
	}
	m["plan.append_ms"] = median(appends)
	m["plan.analyze_ms"] = median(analyses)

	// Untraced and traced runs of the same jobs through the same
	// per-unit schedule: the difference is the tracing overhead.
	plainJobs, err := planJobs(in.cells)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	plain, _ := runGroups(plainJobs, opts.workers, nil)
	plainWall := time.Since(start)

	jobs, err := planJobs(in.cells)
	if err != nil {
		return nil, err
	}
	lanes := make([]laneStats, len(jobs))
	for i := range jobs {
		jobs[i] = traceJob(jobs[i], &lanes[i])
	}
	groupTimes := make([][2]time.Time, len(jobs))
	start = time.Now()
	traced, groups := runGroups(jobs, opts.workers, func(g int, s, e time.Time) { groupTimes[g] = [2]time.Time{s, e} })
	end := time.Now()
	tracedWall := end.Sub(start)
	rep.attempted += int64(2 * len(jobs))

	// Wrappers must not change the simulated program.
	for i := range jobs {
		for _, r := range []batch.RunResult{plain[i], traced[i]} {
			if r.Err != "" {
				rep.failed++
				rep.problem("cell %d: %s", i, r.Err)
			}
		}
		if !reflect.DeepEqual(plain[i].Result, traced[i].Result) {
			rep.problem("cell %d: traced sim.Result differs from the untraced one", i)
		}
		res, row := traced[i].Result, rows[i]
		if row.SimS != res.DurationS || row.EnergyJ != res.EnergyJ || row.AvgPowerW != res.AvgPowerW ||
			row.PeakPowerW != res.PeakPowerW || row.PeakTempBigC != res.PeakTempBigC ||
			row.PeakTempDevC != res.PeakTempDevC || row.ActiveFPS != res.ActiveAvgFPS ||
			row.DropRatePct != res.DropRate()*100 {
			rep.problem("cell %s: traced result differs from the plan row", row.Key)
		}
	}

	tr := newTracer()
	root := tr.add("plan.sweep", 0, start, end)
	var engineSelf, trainNS, groupNS int64
	var evalTicks int64
	for i := range traced {
		evalTicks += int64(traced[i].Result.DurationS*1000 + 0.5)
	}
	if evalTicks != in.evalTicks {
		rep.problem("engines simulated %d evaluation ticks, the compiled timelines hold %d", evalTicks, in.evalTicks)
	}
	// Attribute lanes to their units: jobs of unit g are contiguous.
	unit := 0
	unitEnd := 0
	var unitSpan uint64
	for i := range jobs {
		if i == unitEnd {
			gt := groupTimes[unit]
			unitSpan = tr.add("batch.span", root, gt[0], gt[1])
			d := int64(gt[1].Sub(gt[0]))
			groupNS += d
			engineSelf += d
			unit++
			unitEnd = i + 1
			for unitEnd < len(jobs) && jobs[unitEnd].LockstepKey == jobs[i].LockstepKey {
				unitEnd++
			}
		}
		st := &lanes[i]
		for _, b := range st.builds {
			tr.add("exp.build", unitSpan, b[0], b[1])
			trainNS += int64(b[1].Sub(b[0]))
			engineSelf -= int64(b[1].Sub(b[0]))
		}
		engineSelf -= st.decideNS + st.observeNS + st.controlNS
		m["governor.decide_calls"] += float64(st.decideCalls)
		m["governor.decide_s"] += float64(st.decideNS) / 1e9
		if st.agent {
			m["core.observe_s"] += float64(st.observeNS) / 1e9
			m["core.control_calls"] += float64(st.controlCalls)
			m["core.control_ns_mean"] += float64(st.controlNS)
		}
	}
	if c := m["core.control_calls"]; c > 0 {
		m["core.control_ns_mean"] /= c
	}
	m["exp.train_s"] = float64(trainNS) / 1e9
	m["sim.engine_self_s"] = float64(engineSelf) / 1e9
	m["sim.ticks"] = float64(evalTicks)
	m["sim.ns_per_tick"] = float64(engineSelf) / float64(evalTicks)
	m["batch.lanes_per_span"] = float64(len(jobs)) / float64(groups)
	m["batch.busy_frac"] = float64(groupNS) / (float64(min(opts.workers, groups)) * float64(tracedWall))

	// Isolated stage costs on the same platform models, weighted by the
	// evaluation ticks each platform ran.
	var powerNS, thermalNS, stageNS float64
	names := make([]string, 0, len(in.evalTicksByPlatform))
	for n := range in.evalTicksByPlatform {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p, t := stageCosts(platform.MustGet(n))
		share := float64(in.evalTicksByPlatform[n]) / float64(in.evalTicks)
		powerNS += p * share
		thermalNS += t * share
		stageNS += (p + t) * float64(in.evalTicksByPlatform[n])
		rep.note("%s: power %.1f ns/tick, thermal step %.1f ns/tick (isolated)", n, p, t)
	}
	m["power.eval_ns"] = powerNS
	m["thermal.step_ns"] = thermalNS
	m["ledger.power_thermal_share"] = stageNS / float64(engineSelf)
	m["trace.overhead_frac"] = tracedWall.Seconds()/plainWall.Seconds() - 1
	m["failed_ratio"] = float64(rep.failed) / float64(rep.attempted)
	rep.note("ledger: (power %.1f + thermal %.1f ns) x %d ticks = %.3f s of %.3f s engine self time (%.0f%%)",
		powerNS, thermalNS, evalTicks, stageNS/1e9, float64(engineSelf)/1e9, 100*m["ledger.power_thermal_share"])
	rep.note("tracing overhead: traced %.3f s vs untraced %.3f s", tracedWall.Seconds(), plainWall.Seconds())
	if p, err := tr.write("plan-sweep", opts.seed); err == nil {
		rep.note("spans written to %s", p)
	} else {
		return nil, err
	}
	return rep, nil
}

// stageCosts times the engine's per-tick power evaluation (every
// cluster's power.Table.Power once) and one thermal.Model.Step, in
// isolation on fresh models of the platform.
func stageCosts(plat platform.Platform) (powerNS, thermalNS float64) {
	const iters = 200_000
	chip := plat.NewChip()
	model := plat.NewPower()
	tables := make([]*power.Table, len(chip.Clusters))
	for i, c := range chip.Clusters {
		tables[i] = model.Table(c)
	}
	var sink float64
	start := time.Now()
	for i := 0; i < iters; i++ {
		for k, c := range chip.Clusters {
			sink += tables[k].Power(i%c.NumOPPs(), 0.6, 55)
		}
	}
	powerNS = float64(time.Since(start)) / iters

	th := plat.NewThermal(plat.AmbientC)
	pw := make([]float64, th.NumNodes())
	for i := range pw {
		pw[i] = 1.5
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		th.Step(0.001, pw)
	}
	thermalNS = float64(time.Since(start)) / iters
	stageSink = sink
	return powerNS, thermalNS
}

// stageSink keeps the isolated power loop from being optimised away.
var stageSink float64

// printPlanDigests runs one sweep per plan seed and prints the digests
// in plan_digests.json's format.
func printPlanDigests() error {
	dir, err := workDir("plan-digests")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	out := make(map[string]string)
	for s := int64(0); s < planDigestSeeds; s++ {
		in, err := loadPlan(s)
		if err != nil {
			return err
		}
		_, digest, err := sweep(in, filepath.Join(dir, "results.jsonl"), 0)
		if err != nil {
			return err
		}
		out[strconv.FormatInt(planSeed(s), 10)] = digest
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
