package nextdvfs

// One benchmark per figure of the paper's evaluation, plus the overhead
// measurement and the ablations DESIGN.md calls out. Each bench reports
// the figure's headline quantity via b.ReportMetric so
// `go test -bench=. -benchmem` regenerates the paper's numbers:
//
//	BenchmarkFig1SchedutilTrace   — motivation trace (Fig. 1)
//	BenchmarkFig3NextVsSchedutil  — session power/thermal savings (Fig. 3)
//	BenchmarkFig4PPDWTrend        — PPDW vs FPS on Lineage (Fig. 4)
//	BenchmarkFig6TrainingTime     — online vs cloud training (Fig. 6)
//	BenchmarkFig7PowerByApp       — per-app power matrix (Fig. 7)
//	BenchmarkFig8TempByApp        — per-app peak temperatures (Fig. 8)
//	BenchmarkOverheadAgentStep    — agent decision latency (≈227 ns in the paper)
//	BenchmarkAblation*            — design-choice ablations

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"nextdvfs/internal/aggregator"
	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/ctrl"
	"nextdvfs/internal/exp"
	"nextdvfs/internal/fleetd"
	"nextdvfs/internal/learner"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/power"
	"nextdvfs/internal/rollout"
	"nextdvfs/internal/scenario"
	"nextdvfs/internal/sim"
	"nextdvfs/internal/soc"
	"nextdvfs/internal/stats"
	"nextdvfs/internal/thermal"
)

func BenchmarkFig1SchedutilTrace(b *testing.B) {
	var fps float64
	for i := 0; i < b.N; i++ {
		r := exp.Fig1(42)
		fps = r.Result.AvgFPS
	}
	b.ReportMetric(fps, "avg_fps")
}

func BenchmarkFig3NextVsSchedutil(b *testing.B) {
	var saving, tempRed float64
	for i := 0; i < b.N; i++ {
		r := exp.Fig3(42)
		saving = r.PowerSavingPct
		tempRed = r.AvgTempRedPct
	}
	b.ReportMetric(saving, "%power_saved")
	b.ReportMetric(tempRed, "%temp_rise_reduced")
}

func BenchmarkFig4PPDWTrend(b *testing.B) {
	var topPPDW float64
	for i := 0; i < b.N; i++ {
		r := exp.Fig4(42)
		for _, p := range r.Points {
			if !p.Worst && p.PPDW > topPPDW {
				topPPDW = p.PPDW
			}
		}
	}
	b.ReportMetric(topPPDW, "best_ppdw")
}

func BenchmarkFig6TrainingTime(b *testing.B) {
	var onlineMax, cloudMax float64
	for i := 0; i < b.N; i++ {
		pts := exp.Fig6(exp.Fig6Options{Seed: 42, MaxSessions: 12, SessionSecs: 100})
		for _, p := range pts {
			if p.OnlineS > onlineMax {
				onlineMax = p.OnlineS
			}
			if p.CloudS > cloudMax {
				cloudMax = p.CloudS
			}
		}
	}
	b.ReportMetric(onlineMax, "max_online_s")
	b.ReportMetric(cloudMax, "max_cloud_s")
}

// benchEvalRows caches the expensive Fig. 7/8 matrix across the two
// benches so -bench=. does not run it twice.
var benchEvalRows []exp.AppRow

func evalRows() []exp.AppRow {
	if benchEvalRows == nil {
		benchEvalRows = exp.Evaluate(exp.EvalOptions{Seed: 42, MaxSessions: 10, SessionSecs: 120})
	}
	return benchEvalRows
}

func BenchmarkFig7PowerByApp(b *testing.B) {
	var bestSaving float64
	for i := 0; i < b.N; i++ {
		benchEvalRows = nil
		rows := evalRows()
		for _, r := range rows {
			if r.NextPowerSavingPct > bestSaving {
				bestSaving = r.NextPowerSavingPct
			}
		}
	}
	b.ReportMetric(bestSaving, "max_%power_saved")
}

func BenchmarkFig8TempByApp(b *testing.B) {
	var bestBig, bestDev float64
	for i := 0; i < b.N; i++ {
		rows := evalRows() // reuses the Fig. 7 matrix when cached
		for _, r := range rows {
			if r.NextBigTempRedPct > bestBig {
				bestBig = r.NextBigTempRedPct
			}
			if r.NextDevTempRedPct > bestDev {
				bestDev = r.NextDevTempRedPct
			}
		}
	}
	b.ReportMetric(bestBig, "max_%big_temp_red")
	b.ReportMetric(bestDev, "max_%dev_temp_red")
}

// nullActuator discards actuations: the overhead bench measures the
// agent's decision path, not the platform's.
type nullActuator struct{}

func (nullActuator) SetCap(string, int)   {}
func (nullActuator) SetFloor(string, int) {}
func (nullActuator) Pin(string, int)      {}

func BenchmarkOverheadAgentStep(b *testing.B) {
	// The paper reports ≈227 ns average computation per Next invocation.
	cfg := core.DefaultAgentConfig()
	cfg.Seed = 7
	agent := core.NewAgent(cfg)
	agent.AppChanged("bench", true)
	snap := ctrl.Snapshot{
		NowUS: 0, FPS: 60, PowerW: 5, TempBigC: 55, TempDeviceC: 40, AmbientC: 21,
		AppName: "bench", AppClassGame: true,
		Clusters: []ctrl.ClusterView{
			{Name: "big", NumOPPs: 18, CurIdx: 9, CapIdx: 9, OPPKHz: make([]int, 18)},
			{Name: "LITTLE", NumOPPs: 10, CurIdx: 5, CapIdx: 5, OPPKHz: make([]int, 10)},
			{Name: "GPU", IsGPU: true, NumOPPs: 6, CurIdx: 3, CapIdx: 3, OPPKHz: make([]int, 6)},
		},
	}
	var act nullActuator
	// Warm up the table so the bench measures steady-state decisions.
	for i := 0; i < 1000; i++ {
		snap.NowUS += 100_000
		agent.Control(snap, act)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap.NowUS += 100_000
		agent.Control(snap, act)
	}
}

func BenchmarkOverheadObserve(b *testing.B) {
	cfg := core.DefaultAgentConfig()
	agent := core.NewAgent(cfg)
	snap := ctrl.Snapshot{FPS: 60}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agent.Observe(snap)
	}
}

// --- Ablations -----------------------------------------------------------

// ablationEval trains and evaluates Spotify (the paper's headline waste
// case) under a modified agent configuration and reports the saving.
func ablationEval(b *testing.B, mutate func(*core.AgentConfig)) {
	var saving float64
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultAgentConfig()
		if mutate != nil {
			mutate(&cfg)
		}
		rows := exp.EvaluateApp("spotify", exp.EvalOptions{Seed: 42, MaxSessions: 8, SessionSecs: 120}, &cfg)
		saving = rows.NextPowerSavingPct
	}
	b.ReportMetric(saving, "%power_saved")
}

func BenchmarkAblationBaselinePPDW(b *testing.B) {
	ablationEval(b, nil)
}

func BenchmarkAblationRewardPPW(b *testing.B) {
	// Thermally-blind performance-per-watt reward: the paper's argument
	// for PPDW is that PPW "is not enough" on mobile.
	ablationEval(b, func(c *core.AgentConfig) { c.Reward.PPW = true })
}

func BenchmarkAblationMeanTarget(b *testing.B) {
	// Mean-of-window target instead of the paper's mode.
	ablationEval(b, func(c *core.AgentConfig) { c.UseMeanTarget = true })
}

func BenchmarkAblationWindow1s(b *testing.B) {
	// 1 s frame window (40 samples) vs the paper's empirically best 4 s.
	ablationEval(b, func(c *core.AgentConfig) { c.WindowSamples = 40; c.WarmupSamples = 10 })
}

func BenchmarkAblationWindow8s(b *testing.B) {
	ablationEval(b, func(c *core.AgentConfig) { c.WindowSamples = 320; c.WarmupSamples = 80 })
}

func BenchmarkAblationCoarseFPSState(b *testing.B) {
	// The paper's coarsest granularity (3 levels ↔ quantization 30):
	// trains fastest but cannot see moderate QoS shortfalls.
	ablationEval(b, func(c *core.AgentConfig) {
		c.State.FPSLevels = 3
		c.State.TargetLevels = 3
	})
}

func BenchmarkAblationDoubleQ(b *testing.B) {
	// Double Q-learning: removes max-operator overestimation under the
	// noisy PPDW reward (extension beyond the paper).
	ablationEval(b, func(c *core.AgentConfig) { c.Learner = "doubleq" })
}

func BenchmarkAblationSARSA(b *testing.B) {
	// On-policy SARSA: conservative around exploratory dips.
	ablationEval(b, func(c *core.AgentConfig) { c.Learner = "sarsa" })
}

// BenchmarkFleetCheckin measures the fleet policy server's hot path —
// one device check-in cycle: a Q-table upload (HTTP PUT, binary NXTB
// wire) followed by a federated merge round over the 64-device fleet
// the table joins. Alongside throughput it reports wire_B/checkin, the
// upload body size the negotiated codec puts on the wire (gated by a
// ceiling in BENCH_fleet.json so the binary format cannot quietly
// bloat). The baseline is recorded there too; the server must sustain
// ≥1000 check-ins/sec.
func BenchmarkFleetCheckin(b *testing.B) {
	srv, err := fleetd.NewServer(fleetd.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := fleetd.NewClient(ts.URL)
	client.UseBinary = true

	// A realistic device table: 64 visited states over the Note 9's
	// 9-action space, plus 63 pre-seeded peers so every merge round
	// federates a full fleet.
	const fleetDevices = 64
	rng := rand.New(rand.NewSource(42))
	for d := 0; d < fleetDevices; d++ {
		if _, err := client.UploadTable(fmt.Sprintf("dev-%03d", d), "note9", "spotify", benchFleetTable(rng)); err != nil {
			b.Fatal(err)
		}
	}
	table := benchFleetTable(rng)
	wire, err := core.MarshalTableBinary("spotify", table, false)
	if err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		device := fmt.Sprintf("dev-%03d", i%fleetDevices)
		if _, err := client.UploadTable(device, "note9", "spotify", table); err != nil {
			b.Fatal(err)
		}
		if _, err := client.Merge("spotify", "note9"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "checkins/s")
	b.ReportMetric(float64(len(wire)), "wire_B/checkin")
}

// benchFleetTable builds the realistic device table the fleet benches
// upload: 64 visited states over the Note 9's 9-action space.
func benchFleetTable(rng *rand.Rand) *core.QTable {
	t := core.NewQTable(9)
	for s := 0; s < 64; s++ {
		row := make([]float64, 9)
		for a := range row {
			row[a] = rng.NormFloat64()
		}
		t.Q[core.StateKey(s)] = row
		t.Visits[core.StateKey(s)] = rng.Intn(200) + 1
	}
	return t
}

// BenchmarkFleetCheckinScale charts the serving tier's scaling curve:
// one op is the device-facing check-in cycle (table upload over the
// binary wire + merge round) at fleet sizes from 64 to 10 000 devices,
// flat against the root and through a 4-aggregator edge tier. The
// merge costs the cells the upload changed, not the fleet, so the
// flat 1000 : 10 000 ratio shows what still scales with fleet size. In
// the two-tier topology federation to the root is batched off the
// device-facing path and verified (untimed) after each run by flushing
// every aggregator and confirming the root's join covers the whole
// fleet. The 1000- and 10 000-device floors are gated in
// BENCH_fleet.json; the 64-device point documents the curve.
func BenchmarkFleetCheckinScale(b *testing.B) {
	for _, bc := range []struct {
		name    string
		devices int
		aggs    int
	}{
		{"flat/devices=64", 64, 0},
		{"flat/devices=1000", 1000, 0},
		{"flat/devices=10000", 10000, 0},
		{"aggs=4/devices=10000", 10000, 4},
	} {
		b.Run(bc.name, func(b *testing.B) { benchCheckinScale(b, bc.devices, bc.aggs) })
	}
}

func benchCheckinScale(b *testing.B, devices, aggs int) {
	root, err := fleetd.NewServer(fleetd.Config{MaxDevicesPerKey: devices + 1})
	if err != nil {
		b.Fatal(err)
	}
	rootTS := httptest.NewServer(root.Handler())
	defer rootTS.Close()
	rootClient := fleetd.NewClient(rootTS.URL)
	rootClient.UseBinary = true

	// Devices talk to the root directly (flat) or to their regional
	// aggregator (device d → aggregator d mod aggs).
	clients := []*fleetd.Client{rootClient}
	var edges []*aggregator.Server
	if aggs > 0 {
		if devices%aggs != 0 {
			b.Fatalf("devices=%d not divisible by aggs=%d; device routing would drift", devices, aggs)
		}
		clients = nil
		for a := 0; a < aggs; a++ {
			edge, err := aggregator.New(aggregator.Config{
				ID:   fmt.Sprintf("agg-%d", a),
				Root: rootTS.URL,
				// No background flusher and a queue sized for the whole
				// region: the timed loop measures the device-facing cycle,
				// and upward federation happens in the untimed checkpoint.
				FlushEvery:       -1,
				QueueLimit:       devices,
				MaxDevicesPerKey: devices,
			})
			if err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(edge.Handler())
			defer ts.Close()
			edges = append(edges, edge)
			c := fleetd.NewClient(ts.URL)
			c.UseBinary = true
			clients = append(clients, c)
		}
	}

	rng := rand.New(rand.NewSource(42))
	for d := 0; d < devices; d++ {
		device := fmt.Sprintf("dev-%05d", d)
		if _, err := clients[d%len(clients)].UploadTable(device, "note9", "spotify", benchFleetTable(rng)); err != nil {
			b.Fatal(err)
		}
	}
	table := benchFleetTable(rng)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		device := fmt.Sprintf("dev-%05d", i%devices)
		c := clients[i%len(clients)]
		if _, err := c.UploadTable(device, "note9", "spotify", table); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Merge("spotify", "note9"); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "checkins/s")

	// Untimed topology checkpoint: drain every aggregator and confirm
	// the root's federated join sees the full fleet.
	if aggs > 0 {
		for _, edge := range edges {
			if _, err := edge.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		info, err := rootClient.Merge("spotify", "note9")
		if err != nil {
			b.Fatal(err)
		}
		if info.Devices != devices {
			b.Fatalf("root joined %d devices, want %d", info.Devices, devices)
		}
	}
}

// BenchmarkPolicyResolve measures the rollout manager's device-facing
// hot path — cohort bucketing plus stable/candidate artifact selection
// while a staged rollout is live — against 4096 registered devices.
// Every policy download goes through Resolve, so it must stay far
// cheaper than the HTTP serving around it; the floor is recorded in
// BENCH_fleet.json.
func BenchmarkPolicyResolve(b *testing.B) {
	var now int64
	m := rollout.New(rollout.Config{NowUS: func() int64 { now++; return now }})
	names := make([]string, 4096)
	for i := range names {
		names[i] = fmt.Sprintf("dev-%08d", i)
		m.RegisterDevice(names[i])
	}
	rng := rand.New(rand.NewSource(42))
	mkSet := func() *learner.TableSet {
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
	// A stable and a distinct candidate, so Resolve walks the full
	// staged-cohort split instead of the stable-only fast path.
	for round := int64(1); round <= 2; round++ {
		art, err := cloud.NewArtifact(mkSet(), round, len(names))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Submit("spotify@note9", art); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art, _, ok := m.Resolve("spotify@note9", names[i%len(names)])
		if !ok || art == nil {
			b.Fatal("resolve returned no artifact")
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "resolves/s")
}

// BenchmarkScenarioStep measures the scenario engine's hot path: one op
// compiles the broadest preset (mixed-day, scaled to ~21 simulated
// seconds so an op stays ~ms-sized) and integrates it through the sim
// engine — timeline cursor, ambient/refresh schedules, screen-off
// power path and all. The headline metric is simulated ticks per
// wall-clock second; the floor is recorded in BENCH_scenario.json and
// enforced by the CI bench gate.
func BenchmarkScenarioStep(b *testing.B) {
	plat := platform.MustGet(platform.DefaultName)
	scn := scenario.Scaled(scenario.MustGet("mixed-day"), 0.01)
	var ticks int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compiled, err := scenario.Compile(scn, 42, plat.AmbientC)
		if err != nil {
			b.Fatal(err)
		}
		cfg := plat.Config(compiled.Timeline, 42)
		cfg.Ambient = compiled.Ambient
		cfg.Refresh = compiled.Refresh
		eng, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng.Run()
		ticks += compiled.Timeline.DurUS() / 1000 // default 1 ms tick
	}
	b.StopTimer()
	b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "simticks/s")
}

// sweepBenchConfigs assembles the canonical k-lane lockstep sweep the
// two benches below share: mixed-day at 1% scale, one structural seed,
// k consecutive engine seeds.
func sweepBenchConfigs(b *testing.B, k int) ([]sim.Config, int64) {
	b.Helper()
	plat := platform.MustGet(platform.DefaultName)
	scn := scenario.Scaled(scenario.MustGet("mixed-day"), 0.01)
	cfgs := make([]sim.Config, k)
	var durUS int64
	for r := 0; r < k; r++ {
		compiled, err := scenario.Compile(scn, 42, plat.AmbientC)
		if err != nil {
			b.Fatal(err)
		}
		cfg := plat.Config(compiled.Timeline, int64(100+r))
		cfg.Ambient = compiled.Ambient
		cfg.Refresh = compiled.Refresh
		cfgs[r] = cfg
		durUS = compiled.Timeline.DurUS()
	}
	return cfgs, durUS
}

// BenchmarkScenarioSweepBatched measures the lockstep batched engine:
// one op compiles an 8-lane mixed-day seed sweep and steps all lanes
// through one sim.BatchEngine — shared timeline cursor, schedule
// lookups and power/thermal constants, struct-of-arrays state. The
// metric is AGGREGATE simulated ticks per wall-clock second (k × the
// per-lane tick count); BENCH_scenario.json records the floor and the
// measured multiple over BenchmarkScenarioSweepScalar, the k-scalar
// reference below.
func BenchmarkScenarioSweepBatched(b *testing.B) {
	const k = 8
	var ticks int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfgs, durUS := sweepBenchConfigs(b, k)
		be, err := sim.NewBatch(cfgs)
		if err != nil {
			b.Fatal(err)
		}
		be.Run()
		ticks += int64(k) * durUS / 1000 // default 1 ms tick
	}
	b.StopTimer()
	b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "simticks/s")
}

// BenchmarkScenarioSweepScalar runs the identical 8-lane sweep on one
// scalar engine per lane — the reference the batched gate's multiple is
// measured against. Same aggregate-ticks metric.
func BenchmarkScenarioSweepScalar(b *testing.B) {
	const k = 8
	var ticks int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfgs, durUS := sweepBenchConfigs(b, k)
		for r := 0; r < k; r++ {
			eng, err := sim.New(cfgs[r])
			if err != nil {
				b.Fatal(err)
			}
			eng.Run()
		}
		ticks += int64(k) * durUS / 1000
	}
	b.StopTimer()
	b.ReportMetric(float64(ticks)/b.Elapsed().Seconds(), "simticks/s")
}

// benchSink defeats dead-code elimination in the micro benches below.
var benchSink float64

// --- Per-subsystem micro gates (floors in BENCH_sim.json) ----------------
//
// The scenario bench above covers the integrated hot path; these three
// isolate the per-tick kernels the tentpole optimized, so a regression
// in one subsystem is caught at its own gate instead of hiding inside
// end-to-end noise.

// BenchmarkPowerStep measures the table-driven cluster power lookup —
// the engine evaluates it once per cluster per simulated millisecond.
func BenchmarkPowerStep(b *testing.B) {
	chip := soc.Exynos9810()
	model := power.Exynos9810Model()
	tables := make([]*power.Table, len(chip.Clusters))
	for i, c := range chip.Clusters {
		tables[i] = model.Table(c)
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, c := range chip.Clusters {
			sink += tables[k].Power(i%c.NumOPPs(), 0.6, 55)
		}
	}
	b.StopTimer()
	benchSink = sink
	b.ReportMetric(float64(b.N)*float64(len(chip.Clusters))/b.Elapsed().Seconds(), "evals/s")
}

// BenchmarkThermalStep measures one RC-network integration step of the
// Note 9 thermal model — once per simulated millisecond in the engine.
func BenchmarkThermalStep(b *testing.B) {
	m := thermal.Note9(21)
	powerW := make([]float64, m.NumNodes())
	for i := range powerW {
		powerW[i] = 1.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(0.001, powerW)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkQuantize measures the agent's state-space quantizer round
// trip (Index + Value), the inner kernel of every Observe/Control.
func BenchmarkQuantize(b *testing.B) {
	q := stats.NewQuantizer(0, 120, 12)
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += q.Value(q.Index(float64(i%1201) * 0.1))
	}
	b.StopTimer()
	benchSink = sink
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "lookups/s")
}

// BenchmarkAgentSelect measures one action selection through the
// Learner/Explorer interface pair (watkins + ε-greedy over a warmed
// 64-state table) — the decision half of every 100 ms control step.
// The floor in BENCH_sim.json pins the interface dispatch cost: the
// registry refactor must not make the paper's 227 ns step regress.
func BenchmarkAgentSelect(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	l := learner.Must("watkins", 9)
	for i := 0; i < 2000; i++ {
		l.Update(core.StateKey(i%64), i%9, rng.Float64()-0.5, core.StateKey((i+1)%64), i%9, 0.3, 0.9, rng)
	}
	ex := learner.MustExplorer("egreedy", learner.ExplorerConfig{EpsilonStart: 0.08, EpsilonMin: 0.08})
	var sink int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += l.SelectAction(ex, core.StateKey(i%64), rng)
	}
	b.StopTimer()
	benchSink = float64(sink)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "selects/s")
}

// BenchmarkAgentUpdate measures one TD update through the Learner
// interface (watkins over a warmed table) — the learning half of every
// control step. Gated like BenchmarkAgentSelect.
func BenchmarkAgentUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	l := learner.Must("watkins", 9)
	for i := 0; i < 2000; i++ {
		l.Update(core.StateKey(i%64), i%9, rng.Float64()-0.5, core.StateKey((i+1)%64), i%9, 0.3, 0.9, rng)
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += l.Update(core.StateKey(i%64), i%9, 0.25, core.StateKey((i+1)%64), i%9, 0.3, 0.9, rng)
	}
	b.StopTimer()
	benchSink = sink
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "updates/s")
}

func BenchmarkExtensionHighRefresh(b *testing.B) {
	// 60/90/120 Hz panels (the paper evaluates only 60 Hz).
	var saving120 float64
	for i := 0; i < b.N; i++ {
		rows := exp.HighRefresh(42)
		saving120 = rows[len(rows)-1].SavingPct
	}
	b.ReportMetric(saving120, "%power_saved_120hz")
}
