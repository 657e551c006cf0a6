package fleetsim

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"nextdvfs/internal/cloud"
	"nextdvfs/internal/core"
	"nextdvfs/internal/fleetd"
)

func startServer(t *testing.T) (*fleetd.Server, string, func()) {
	t.Helper()
	srv, err := fleetd.NewServer(fleetd.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, ts.URL, ts.Close
}

// The acceptance test of the fleet subsystem: 64 simulated devices
// trained from deterministic seeds drive an in-process fleetd
// concurrently, and the federated table the server converges to is
// byte-identical to a serial cloud.Fleet.MergeApp of the same
// per-device tables.
func TestFleet64DevicesConvergeToSerialMerge(t *testing.T) {
	_, url, done := startServer(t)
	defer done()

	opts := Options{
		Devices:     64,
		App:         "spotify",
		Platform:    "note9",
		Sessions:    1,
		SessionSecs: 6,
		Seed:        42,
		Parallel:    8,
	}
	report, err := Run(url, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		for _, d := range report.Devices {
			if d.Err != "" {
				t.Errorf("%s: %s", d.Device, d.Err)
			}
		}
		t.Fatalf("%d devices failed", report.Errors)
	}
	if report.Merge.Devices != 64 {
		t.Fatalf("final merge saw %d devices, want 64", report.Merge.Devices)
	}
	// Every device pulled some merged policy mid-traffic.
	for _, d := range report.Devices {
		if d.PolicyRound == 0 || d.PolicyStates == 0 {
			t.Fatalf("%s never received a policy (round=%d states=%d)", d.Device, d.PolicyRound, d.PolicyStates)
		}
		if d.Uploaded == nil || d.States == 0 {
			t.Fatalf("%s uploaded nothing", d.Device)
		}
	}

	// Serial reference: install the same uploaded tables on a fresh
	// fleet, in device order, and merge the paper's way.
	fleet := &cloud.Fleet{Trainer: cloud.DefaultTrainerConfig()}
	for _, d := range report.Devices {
		a := core.NewAgent(core.DefaultAgentConfig())
		a.InstallTable(opts.App, d.Uploaded.Clone(), false)
		fleet.Devices = append(fleet.Devices, a)
	}
	serial, _, err := fleet.MergeApp(opts.App)
	if err != nil {
		t.Fatal(err)
	}

	gotJSON, err := core.MarshalTable(opts.App, report.Merged, true)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := core.MarshalTable(opts.App, serial, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("concurrent fleet merge differs from serial cloud.Fleet.MergeApp")
	}
	if serial.States() == 0 {
		t.Fatal("degenerate merge: no states")
	}

	// Distinct seeds must produce genuinely different device tables —
	// otherwise the merge proves nothing.
	a, _ := core.MarshalTable(opts.App, report.Devices[0].Uploaded, false)
	b, _ := core.MarshalTable(opts.App, report.Devices[1].Uploaded, false)
	if bytes.Equal(a, b) {
		t.Fatal("devices 0 and 1 trained identical tables; seeds not independent")
	}
}

// Two identically-seeded fleet runs against fresh servers must produce
// byte-identical merged tables regardless of traffic interleaving.
func TestFleetRunDeterministic(t *testing.T) {
	opts := Options{Devices: 6, Sessions: 1, SessionSecs: 5, Seed: 7, Parallel: 4}
	var tables [][]byte
	for i := 0; i < 2; i++ {
		_, url, done := startServer(t)
		report, err := Run(url, opts)
		done()
		if err != nil {
			t.Fatal(err)
		}
		if report.Errors != 0 {
			t.Fatalf("run %d: %d device errors", i, report.Errors)
		}
		data, err := core.MarshalTable(report.Options.App, report.Merged, true)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, data)
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Fatal("same seeds, different merged tables")
	}
}

// Lockstep is a distinct, deterministic training mode: two
// identically-seeded lockstep fleets merge to byte-identical tables,
// every device succeeds, and per-device tables still differ (each lane
// keeps its own engine seed and rng streams inside the shared loop).
func TestFleetLockstepDeterministic(t *testing.T) {
	opts := Options{Devices: 5, Sessions: 2, SessionSecs: 5, Seed: 7, Parallel: 4, Lockstep: true}
	var tables [][]byte
	var first Report
	for i := 0; i < 2; i++ {
		_, url, done := startServer(t)
		report, err := Run(url, opts)
		done()
		if err != nil {
			t.Fatal(err)
		}
		if report.Errors != 0 {
			for _, d := range report.Devices {
				if d.Err != "" {
					t.Errorf("%s: %s", d.Device, d.Err)
				}
			}
			t.Fatalf("run %d: %d device errors", i, report.Errors)
		}
		data, err := core.MarshalTable(report.Options.App, report.Merged, true)
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, data)
		if i == 0 {
			first = report
		}
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Fatal("same seeds, different lockstep merged tables")
	}
	a, _ := core.MarshalTable(first.Options.App, first.Devices[0].Uploaded, false)
	b, _ := core.MarshalTable(first.Options.App, first.Devices[1].Uploaded, false)
	if bytes.Equal(a, b) {
		t.Fatal("lockstep lanes 0 and 1 trained identical tables; engine seeds not independent")
	}
}

// A scenario fleet in lockstep mode groups devices into per-preset
// cohorts; every cohort trains and federates successfully.
func TestFleetLockstepScenarioCohorts(t *testing.T) {
	_, url, done := startServer(t)
	defer done()
	opts := Options{
		Devices: 6, Sessions: 1, SessionSecs: 6, Seed: 11, Parallel: 4,
		Lockstep:  true,
		Scenarios: []string{"doomscroll", "bursty-messaging"},
	}
	report, err := Run(url, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		for _, d := range report.Devices {
			if d.Err != "" {
				t.Errorf("%s: %s", d.Device, d.Err)
			}
		}
		t.Fatalf("%d device errors", report.Errors)
	}
	if len(report.PerApp) == 0 {
		t.Fatal("scenario fleet produced no per-app merges")
	}
	for i, d := range report.Devices {
		want := opts.Scenarios[i%len(opts.Scenarios)]
		if d.Scenario != want {
			t.Fatalf("device %d trained %q, want %q", i, d.Scenario, want)
		}
		if len(d.Tables) == 0 {
			t.Fatalf("device %d uploaded no tables", i)
		}
	}
}

func TestFleetRunServerMetricsSeeTraffic(t *testing.T) {
	srv, url, done := startServer(t)
	defer done()
	report, err := Run(url, Options{Devices: 4, Sessions: 1, SessionSecs: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests < int64(4*4+2) {
		t.Fatalf("requests = %d, want at least %d", report.Requests, 4*4+2)
	}
	if got := srv.Metrics().Requests(); got < report.Requests {
		t.Fatalf("server counted %d requests, client sent %d", got, report.Requests)
	}
	count, _, maxUS := srv.Metrics().MergeLatency()
	if count < 5 || maxUS <= 0 {
		t.Fatalf("merge latency summary empty: count=%d max=%d", count, maxUS)
	}
}

func TestFleetRunValidation(t *testing.T) {
	_, url, done := startServer(t)
	defer done()
	if _, err := Run(url, Options{App: "nosuchapp"}); err == nil {
		t.Fatal("unknown app should fail")
	}
	if _, err := Run(url, Options{Platform: "nosuchplat"}); err == nil {
		t.Fatal("unknown platform should fail")
	}
	if _, err := Run("http://127.0.0.1:1", Options{}); err == nil || !strings.Contains(err.Error(), "not reachable") {
		t.Fatal("dead server should fail fast")
	}
}

// A heterogeneous scenario fleet: devices rotate through three usage
// presets, every app any scenario visits is uploaded and federated, and
// each per-app merge is byte-identical to a serial cloud.MergeTables of
// the same device tables — policies trained on different usage
// genuinely blend.
func TestFleetScenarioHeterogeneousMerge(t *testing.T) {
	_, url, done := startServer(t)
	defer done()

	opts := Options{
		Devices:     6,
		Platform:    "note9",
		Sessions:    1,
		SessionSecs: 30,
		Seed:        42,
		Parallel:    4,
		Scenarios:   []string{"commute", "doomscroll", "video-binge"},
	}
	report, err := Run(url, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Errors != 0 {
		for _, d := range report.Devices {
			if d.Err != "" {
				t.Errorf("%s: %s", d.Device, d.Err)
			}
		}
		t.Fatalf("%d devices failed", report.Errors)
	}
	for i, d := range report.Devices {
		want := opts.Scenarios[i%len(opts.Scenarios)]
		if d.Scenario != want {
			t.Fatalf("%s trained %q, want %q", d.Device, d.Scenario, want)
		}
		if len(d.Tables) == 0 || d.States == 0 {
			t.Fatalf("%s uploaded nothing", d.Device)
		}
	}
	if len(report.PerApp) == 0 {
		t.Fatal("scenario fleet reported no per-app merges")
	}

	// The union must span more than one app — heterogeneity is the point.
	if len(report.PerApp) < 3 {
		t.Fatalf("only %d apps federated: %+v", len(report.PerApp), report.PerApp)
	}

	for _, am := range report.PerApp {
		var tables []*core.QTable
		devs := 0
		for _, d := range report.Devices { // device order == sorted name order
			if tab, ok := d.Tables[am.App]; ok {
				tables = append(tables, tab.Clone())
				devs++
			}
		}
		if devs != am.Merge.Devices {
			t.Fatalf("%s: server merged %d devices, fleet holds %d", am.App, am.Merge.Devices, devs)
		}
		serial, err := cloud.MergeTables(tables)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := core.MarshalTable(am.App, am.Merged, true)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := core.MarshalTable(am.App, serial, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%s: concurrent scenario-fleet merge differs from serial cloud.MergeTables", am.App)
		}
	}

	// Devices on different scenarios trained different app sets or
	// different tables — the blend is real.
	if len(report.Devices[0].Tables) == len(report.Devices[1].Tables) {
		same := true
		for app := range report.Devices[0].Tables {
			if _, ok := report.Devices[1].Tables[app]; !ok {
				same = false
				break
			}
		}
		if same {
			a, _ := json.Marshal(report.Devices[0].Tables)
			b, _ := json.Marshal(report.Devices[1].Tables)
			if bytes.Equal(a, b) {
				t.Fatal("commute and doomscroll devices trained identical tables")
			}
		}
	}
}

// Scenario fleets keep the determinism contract: identical options
// against fresh servers produce byte-identical per-app merged tables.
func TestFleetScenarioRunDeterministic(t *testing.T) {
	opts := Options{
		Devices: 4, Sessions: 1, SessionSecs: 20, Seed: 9, Parallel: 4,
		Scenarios: []string{"bursty-messaging", "thermal-soak"},
	}
	var runs [][]byte
	for i := 0; i < 2; i++ {
		_, url, done := startServer(t)
		report, err := Run(url, opts)
		done()
		if err != nil {
			t.Fatal(err)
		}
		if report.Errors != 0 {
			t.Fatalf("run %d: %d device errors", i, report.Errors)
		}
		var blob bytes.Buffer
		for _, am := range report.PerApp {
			data, err := core.MarshalTable(am.App, am.Merged, true)
			if err != nil {
				t.Fatal(err)
			}
			blob.Write(data)
		}
		runs = append(runs, blob.Bytes())
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatal("same scenario fleet options, different merged tables")
	}
}
