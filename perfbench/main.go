// Command perfbench is the repository's benchmark. One invocation runs
// one named workload from a seed, checks the program's outputs, prints
// every metric by name with its unit, and ends with one JSON result
// line:
//
//	bash perfbench/run.sh --workload fleet-flat-10k --seed 3 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing installed;
// --trace 1 wraps the layers' public interfaces from outside, keeps
// spans in memory, writes them to .bench_build/traces/ when the run
// ends and reports the per-layer metrics. BENCHMARK.json at the
// repository root names the workloads and metrics; README.md beside
// this file defines each of them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

// endToEnd are the untraced metrics every workload reports. Each has a
// workload-specific definition (README.md): the throughput is simulated
// ticks per second for the plan sweep and check-ins per second for the
// fleets, and so on.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MiB"},
	{"throughput_per_s", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"round_ms_p50", "ms"},
	{"round_ms_p90", "ms"},
}

// perLayer are the traced metrics. A workload that does not exercise a
// layer reports 0 for it (and prints "n/a").
var perLayer = []metricDef{
	// plan-sweep
	{"exp.train_s", "s"},
	{"sim.engine_self_s", "s"},
	{"sim.ns_per_tick", "ns"},
	{"sim.ticks", "count"},
	{"governor.decide_calls", "count"},
	{"governor.decide_s", "s"},
	{"core.observe_s", "s"},
	{"core.control_calls", "count"},
	{"core.control_ns_mean", "ns"},
	{"power.eval_ns", "ns"},
	{"thermal.step_ns", "ns"},
	{"ledger.power_thermal_share", "ratio"},
	{"batch.lanes_per_span", "count"},
	{"batch.busy_frac", "ratio"},
	{"plan.append_ms", "ms"},
	{"plan.analyze_ms", "ms"},
	{"scenario.compile_ms", "ms"},
	// fleet workloads
	{"request.upload_ms_p50", "ms"},
	{"request.upload_ms_p99", "ms"},
	{"request.policy_ms_p50", "ms"},
	{"request.policy_ms_p99", "ms"},
	{"generator.lateness_ms_p50", "ms"},
	{"generator.lateness_ms_p99", "ms"},
	{"fleetd.upload_handler_us_p50", "us"},
	{"http.upload_overhead_us_p50", "us"},
	{"core.nxtb_decode_us", "us"},
	{"wire.upload_B", "B"},
	{"fleetd.delta_fallbacks", "count"},
	{"fleetd.merge_handler_ms_p50", "ms"},
	{"cloud.dirty_states_per_round", "count"},
	{"core.nxtb_encode_us", "us"},
	{"wire.policy_B", "B"},
	{"aggregator.policy_proxy_us_p50", "us"},
	{"fleetd.policy_handler_us_p50", "us"},
	{"rollout.resolve_ns", "ns"},
	{"policy.not_modified_ratio", "ratio"},
	{"aggregator.upload_handler_us_p50", "us"},
	{"aggregator.local_merge_ms", "ms"},
	{"aggregator.flush_ms", "ms"},
	{"fleetd.federate_handler_ms", "ms"},
	{"fleetd.root_merge_ms", "ms"},
	{"rollout.artifact_ms", "ms"},
	{"wire.nxtf_B_per_epoch", "B"},
	{"aggregator.forwarded", "count"},
	{"aggregator.rejected", "count"},
	{"trace.coverage", "ratio"},
	// every workload
	{"failed_ratio", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// options are the command-line inputs every workload receives.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	workers int // client goroutines / batch workers: nproc
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int64
	problems          []string           // failed output checks
	metrics           map[string]float64 // end-to-end or per-layer, by mode
	notes             []string           // human-readable lines printed before the result
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(opts options) (*report, error)
}

var workloads = []workload{
	{"plan-sweep", runPlanSweep},
	{"fleet-flat-10k", runFlat},
	{"fleet-edge-reads", runEdge},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (plan-sweep, fleet-flat-10k, fleet-edge-reads)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	printDigest := flag.Bool("print-digest", false, "plan-sweep only: run one sweep per recorded plan seed and print the digests for plan_digests.json")
	flag.Parse()

	if *printDigest {
		if err := printPlanDigests(); err != nil {
			fail(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fail(fmt.Errorf("unknown --workload %q", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	defs, err := declaredMetrics(*trace == 1)
	if err != nil {
		fail(err)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workers: runtime.NumCPU()}
	rep, err := w.run(opts)
	if err != nil {
		fail(fmt.Errorf("%s: %w", w.name, err))
	}

	res := result{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		fail(fmt.Errorf("%s attempted no operations", w.name))
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d  workers %d\n", w.name, opts.seed, opts.seconds, *trace, opts.workers)
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !opts.trace && !ok {
			fail(fmt.Errorf("%s did not measure %s", w.name, d.name))
		}
		shown := fmt.Sprintf("%.6g", v)
		if !ok {
			shown = "n/a"
		}
		fmt.Printf("  %-34s %14s %s\n", d.name, shown, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	fmt.Printf("  attempted %d  failed %d\n", rep.attempted, rep.failed)
	for _, p := range rep.problems {
		fmt.Println("  CHECK FAILED: " + p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// declaredMetrics reads BENCHMARK.json from the working directory (the
// repository root) and checks that it declares exactly the metrics this
// program measures, with the same units, so the file and the code
// cannot drift apart.
func declaredMetrics(traced bool) ([]metricDef, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	check := func(section string, declared []struct{ Name, Unit string }, ours []metricDef) error {
		want := make(map[string]string, len(ours))
		for _, d := range ours {
			want[d.name] = d.unit
		}
		var diffs []string
		for _, d := range declared {
			u, ok := want[d.Name]
			switch {
			case !ok:
				diffs = append(diffs, "unmeasured "+d.Name)
			case u != d.Unit:
				diffs = append(diffs, fmt.Sprintf("%s unit %s, measured in %s", d.Name, d.Unit, u))
			}
			delete(want, d.Name)
		}
		for n := range want {
			diffs = append(diffs, "undeclared "+n)
		}
		if len(diffs) > 0 {
			sort.Strings(diffs)
			return fmt.Errorf("BENCHMARK.json %s does not match the benchmark: %s", section, strings.Join(diffs, "; "))
		}
		return nil
	}
	if err := check("end_to_end", doc.EndToEnd, endToEnd); err != nil {
		return nil, err
	}
	if err := check("per_layer", doc.PerLayer, perLayer); err != nil {
		return nil, err
	}
	if traced {
		return perLayer, nil
	}
	return endToEnd, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// heapMiB forces a collection and returns the live heap.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile interpolates the q-quantile (0..1) of xs; xs is sorted in
// place. It returns 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// workDir is the run's private scratch directory under .bench_build.
func workDir(kind string) (string, error) {
	dir := fmt.Sprintf(".bench_build/run/%s-%d", kind, os.Getpid())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
