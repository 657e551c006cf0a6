package benchgate

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: nextdvfs
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFleetCheckin-8 	    1436	    778292 ns/op	      1285 checkins/s
BenchmarkScenarioStep 	     264	   4504473 ns/op	   4739733 simticks/s
PASS
ok  	nextdvfs	2.959s
`

func TestParseBench(t *testing.T) {
	res, err := ParseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(res))
	}
	fc := res["BenchmarkFleetCheckin"] // -8 suffix stripped
	if fc == nil {
		t.Fatalf("FleetCheckin missing: %v", res)
	}
	if fc["ns/op"] != 778292 || fc["checkins/s"] != 1285 {
		t.Fatalf("FleetCheckin metrics = %v", fc)
	}
	ss := res["BenchmarkScenarioStep"] // no suffix at GOMAXPROCS=1
	if ss["simticks/s"] != 4739733 {
		t.Fatalf("ScenarioStep metrics = %v", ss)
	}
}

func TestCheckPassesAndFails(t *testing.T) {
	res, err := ParseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	pass := []Baseline{
		{Benchmark: "BenchmarkFleetCheckin", Floors: map[string]float64{"checkins/s": 1000}},
		{Benchmark: "BenchmarkScenarioStep", Floors: map[string]float64{"simticks/s": 1_500_000}},
	}
	v, err := Check(pass, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}

	fail := []Baseline{
		{Benchmark: "BenchmarkFleetCheckin",
			Floors:   map[string]float64{"checkins/s": 2000},
			Ceilings: map[string]float64{"ns/op": 500000}},
	}
	v, err = Check(fail, res)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 {
		t.Fatalf("want floor+ceiling violations, got %v", v)
	}
	if v[0].Kind != "floor" || v[1].Kind != "ceiling" {
		t.Fatalf("violation kinds = %v", v)
	}
	if !strings.Contains(v[0].String(), "checkins/s") {
		t.Fatalf("violation text %q", v[0].String())
	}
}

func TestCheckMissingBenchmarkIsError(t *testing.T) {
	res, _ := ParseBench(strings.NewReader(sampleOutput))
	_, err := Check([]Baseline{{Benchmark: "BenchmarkRenamed", Floors: map[string]float64{"x/s": 1}}}, res)
	if err == nil {
		t.Fatal("missing benchmark must be an error, not a silent pass")
	}
	_, err = Check([]Baseline{{Benchmark: "BenchmarkFleetCheckin", Floors: map[string]float64{"nope/s": 1}}}, res)
	if err == nil {
		t.Fatal("missing metric must be an error")
	}
}

func TestLoadRepoBaselines(t *testing.T) {
	// Every baseline file CI enforces must stay loadable and armed.
	want := map[string]int{
		"BENCH_fleet.json":    12,
		"BENCH_scenario.json": 3,
		"BENCH_sim.json":      5,
	}
	for name, n := range want {
		bs, err := LoadBaselineFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		if len(bs) != n {
			t.Fatalf("%s holds %d baselines, want %d", name, len(bs), n)
		}
		for _, b := range bs {
			if len(b.Floors) == 0 {
				t.Fatalf("%s: %s enforces nothing", name, b.Benchmark)
			}
		}
	}
}

// TestBenchSimFloorsCoverTickSubsystems pins the per-subsystem gate
// wiring: renaming one of the micro benches must break this test, not
// silently drop the gate.
func TestBenchSimFloorsCoverTickSubsystems(t *testing.T) {
	bs, err := LoadBaselineFile(filepath.Join("..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, b := range bs {
		got[b.Benchmark] = true
	}
	for _, name := range []string{
		"BenchmarkPowerStep", "BenchmarkThermalStep", "BenchmarkQuantize",
		"BenchmarkAgentSelect", "BenchmarkAgentUpdate",
	} {
		if !got[name] {
			t.Errorf("BENCH_sim.json does not gate %s", name)
		}
	}
}

func TestLoadBaselineValidation(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"benchmark":"BenchmarkX"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaselineFile(bad); err == nil {
		t.Fatal("baseline without limits should fail to load")
	}
}

// TestLoadBaselineFilePaths covers the multi-baseline loader: missing
// floor file, malformed JSON, empty arrays, invalid members, and the
// two accepted shapes (single object, array).
func TestLoadBaselineFilePaths(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if _, err := LoadBaselineFile(filepath.Join(dir, "nope.json")); err == nil {
		t.Fatal("missing floor file must error, not silently gate nothing")
	}
	if _, err := LoadBaselineFile(write("garbage.json", `{not json`)); err == nil {
		t.Fatal("malformed JSON object must error")
	}
	if _, err := LoadBaselineFile(write("garbage2.json", `[{"benchmark":`)); err == nil {
		t.Fatal("malformed JSON array must error")
	}
	if _, err := LoadBaselineFile(write("empty.json", `[]`)); err == nil {
		t.Fatal("empty baseline array must error")
	}
	if _, err := LoadBaselineFile(write("unarmored.json", `[{"benchmark":"BenchmarkX"}]`)); err == nil {
		t.Fatal("array member without limits must error")
	}

	one, err := LoadBaselineFile(write("one.json", `{"benchmark":"BenchmarkA","floors":{"x/s":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Benchmark != "BenchmarkA" {
		t.Fatalf("single-object load = %+v", one)
	}
	many, err := LoadBaselineFile(write("many.json", `  [
		{"benchmark":"BenchmarkA","floors":{"x/s":1}},
		{"benchmark":"BenchmarkB","ceilings":{"ns/op":100}}
	]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != 2 || many[1].Benchmark != "BenchmarkB" {
		t.Fatalf("array load = %+v", many)
	}
}

// TestLoadBaselineFilesMixedShapes covers the multi-file loader over
// the full shape corpus: a single-object file, an array file, and a
// mixed list of both — concatenated in file order, with surrounding
// whitespace in the path list tolerated (the CLI splits a
// comma-separated flag).
func TestLoadBaselineFilesMixedShapes(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	single := write("single.json", `{"benchmark":"BenchmarkOne","floors":{"x/s":1}}`)
	array := write("array.json", `[
		{"benchmark":"BenchmarkTwo","floors":{"x/s":2}},
		{"benchmark":"BenchmarkThree","ceilings":{"ns/op":30}}
	]`)

	bs, err := LoadBaselineFiles([]string{single, " " + array})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, b := range bs {
		names = append(names, b.Benchmark)
	}
	want := []string{"BenchmarkOne", "BenchmarkTwo", "BenchmarkThree"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("loaded %v, want %v in file order", names, want)
	}

	if _, err := LoadBaselineFiles(nil); err == nil {
		t.Fatal("empty path list must error")
	}
	if _, err := LoadBaselineFiles([]string{single, filepath.Join(dir, "nope.json")}); err == nil {
		t.Fatal("one missing file must fail the whole load")
	}
	if _, err := LoadBaselineFiles([]string{single, write("empty.json", `[]`)}); err == nil {
		t.Fatal("an empty array file must fail the whole load")
	}
}

func TestFormatMarginsMarkdown(t *testing.T) {
	ms := []Margin{
		{Benchmark: "BenchmarkA", Metric: "x/s", Kind: "floor", Limit: 100, Got: 150},
		{Benchmark: "BenchmarkB", Metric: "ns/op", Kind: "ceiling", Limit: 10, Got: 20},
	}
	out := FormatMarginsMarkdown(ms)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("markdown has %d lines, want header + separator + 2 rows:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "| benchmark |") || !strings.HasPrefix(lines[1], "|---") {
		t.Fatalf("not a markdown table:\n%s", out)
	}
	if !strings.Contains(out, "| 1.50x |") {
		t.Fatalf("healthy margin row off:\n%s", out)
	}
	// The broken ceiling (ratio 0.5) must be bolded and flagged.
	if !strings.Contains(out, "**0.50x — FAIL**") {
		t.Fatalf("broken limit not highlighted:\n%s", out)
	}
}

// TestParseBenchMalformedLine covers the parse failure paths: a bench
// line whose metric value is not numeric must error (a truncated or
// corrupted bench log must fail the gate loudly), while non-result
// lines that merely start with "Benchmark" are skipped.
func TestParseBenchMalformedLine(t *testing.T) {
	_, err := ParseBench(strings.NewReader("BenchmarkBad 100 oops ns/op\n"))
	if err == nil {
		t.Fatal("non-numeric metric value must error")
	}
	res, err := ParseBench(strings.NewReader(
		"BenchmarkScenarioStep measures the scenario hot path\n" + // prose, no iter count
			"Benchmark\n" + // bare prefix, too few fields
			"BenchmarkGood-4 200 123 ns/op 456 widgets/s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("parsed %d benchmarks, want just BenchmarkGood: %v", len(res), res)
	}
	if m := res["BenchmarkGood"]; m["ns/op"] != 123 || m["widgets/s"] != 456 {
		t.Fatalf("BenchmarkGood metrics = %v", m)
	}
}

func TestMarginsAndFormat(t *testing.T) {
	baselines := []Baseline{
		{
			Benchmark: "BenchmarkA",
			Floors:    map[string]float64{"simticks/s": 4e6},
			Ceilings:  map[string]float64{"ns/op": 1e7},
		},
		{
			Benchmark: "BenchmarkB",
			Floors:    map[string]float64{"checkins/s": 2000},
		},
	}
	results := map[string]Metrics{
		"BenchmarkA": {"simticks/s": 9e6, "ns/op": 2.5e6},
		"BenchmarkB": {"checkins/s": 3000},
	}
	ms := Margins(baselines, results)
	if len(ms) != 3 {
		t.Fatalf("Margins returned %d rows, want 3: %+v", len(ms), ms)
	}
	// Baseline order, floors before ceilings within a baseline.
	if ms[0].Benchmark != "BenchmarkA" || ms[0].Kind != "floor" || ms[0].Metric != "simticks/s" {
		t.Fatalf("row 0 = %+v", ms[0])
	}
	if got, want := ms[0].Ratio(), 9e6/4e6; got != want {
		t.Fatalf("floor ratio = %v, want %v", got, want)
	}
	if ms[1].Kind != "ceiling" {
		t.Fatalf("row 1 = %+v", ms[1])
	}
	if got, want := ms[1].Ratio(), 1e7/2.5e6; got != want {
		t.Fatalf("ceiling ratio = %v, want %v (limit/measured)", got, want)
	}
	if ms[2].Benchmark != "BenchmarkB" {
		t.Fatalf("row 2 = %+v", ms[2])
	}

	out := FormatMargins(ms)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want header + 3 rows:\n%s", len(lines), out)
	}
	for _, want := range []string{"benchmark", "margin", "2.25x", "4.00x", "1.50x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestMarginsSkipsUnreportedMetric(t *testing.T) {
	baselines := []Baseline{{
		Benchmark: "BenchmarkA",
		Floors:    map[string]float64{"simticks/s": 1, "missing/s": 1},
	}}
	results := map[string]Metrics{"BenchmarkA": {"simticks/s": 2}}
	ms := Margins(baselines, results)
	if len(ms) != 1 || ms[0].Metric != "simticks/s" {
		t.Fatalf("Margins = %+v, want the one reported metric", ms)
	}
}
