package fleetd

import (
	"bytes"
	"errors"
	"fmt"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"nextdvfs/internal/core"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, NewClient(ts.URL), ts.Close
}

func TestServerEndToEnd(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()

	if _, err := client.Healthz(); err != nil {
		t.Fatal(err)
	}

	// Fresh check-in: no policies yet.
	reply, err := client.Checkin("dev-000", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Policies) != 0 {
		t.Fatalf("policies on empty server: %+v", reply.Policies)
	}

	// Two devices upload, a merge round runs, a third pulls the policy.
	if _, err := client.UploadTable("dev-000", "note9", "spotify", devTable(1)); err != nil {
		t.Fatal(err)
	}
	up, err := client.UploadTable("dev-001", "note9", "spotify", devTable(2))
	if err != nil {
		t.Fatal(err)
	}
	if up.Devices != 2 {
		t.Fatalf("devices after second upload = %d", up.Devices)
	}
	info, err := client.Merge("spotify", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if info.Round != 1 || info.Devices != 2 || info.States == 0 {
		t.Fatalf("merge info = %+v", info)
	}
	table, round, err := client.Policy("spotify", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if round != 1 || table.States() != info.States {
		t.Fatalf("policy round=%d states=%d, want round=1 states=%d", round, table.States(), info.States)
	}

	// The next check-in now advertises the merged policy.
	reply, err = client.Checkin("dev-002", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Policies) != 1 || reply.Policies[0].App != "spotify" || reply.Policies[0].Round != 1 {
		t.Fatalf("check-in policies = %+v", reply.Policies)
	}
	// A different platform sees nothing.
	other, err := client.Checkin("dev-003", "sd855")
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Policies) != 0 {
		t.Fatalf("cross-platform policy leak: %+v", other.Policies)
	}

	infos, err := client.Apps("")
	if err != nil || len(infos) != 1 {
		t.Fatalf("apps: %v %v", infos, err)
	}

	health, err := client.Healthz()
	if err != nil {
		t.Fatal(err)
	}
	// Three devices checked in (dev-001 only uploaded; uploads do not
	// count as check-ins), two contributed tables, one policy merged.
	if health.Devices != 3 || health.Merged != 1 || health.DeviceTables != 2 {
		t.Fatalf("health = %+v", health)
	}
}

func TestServerErrorPaths(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()

	if _, err := client.Checkin("", "note9"); err == nil {
		t.Fatal("empty device check-in should fail")
	}
	if _, err := client.UploadTable("", "note9", "spotify", devTable(1)); err == nil {
		t.Fatal("upload without device should fail")
	}
	if _, err := client.Merge("spotify", "note9"); err == nil {
		t.Fatal("merge with no uploads should fail")
	}
	if _, _, err := client.Policy("spotify", "note9"); err == nil {
		t.Fatal("policy on empty server should 404")
	}
	if _, err := client.UploadTable("d0", "note9", "spotify", devTable(1)); err != nil {
		t.Fatal(err)
	}
	mismatched := core.NewQTable(3)
	if _, err := client.UploadTable("d1", "note9", "spotify", mismatched); err == nil {
		t.Fatal("action mismatch should be rejected")
	}
}

func TestServerMetricsExposition(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()

	client.Checkin("d0", "note9")
	client.UploadTable("d0", "note9", "spotify", devTable(1))
	client.Merge("spotify", "note9")
	client.Policy("spotify", "note9")
	client.Merge("nosuchapp", "note9") // counted as a merge error

	text, err := client.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`fleetd_requests_total{endpoint="checkin"} 1`,
		`fleetd_requests_total{endpoint="upload"} 1`,
		`fleetd_requests_total{endpoint="merge"} 2`,
		`fleetd_requests_total{endpoint="policy"} 1`,
		`fleetd_request_errors_total{endpoint="merge"} 1`,
		`fleetd_merge_latency_us_count 1`,
		`fleetd_devices_seen 1`,
		`fleetd_policies{state="merged"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestServerSnapshotWarmRestart(t *testing.T) {
	dir := t.TempDir()
	_, client, done := newTestServer(t, Config{SnapshotDir: dir})

	if _, err := client.UploadTable("d0", "note9", "spotify", devTable(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Merge("spotify", "note9"); err != nil {
		t.Fatal(err)
	}
	before, _, err := client.Policy("spotify", "note9")
	if err != nil {
		t.Fatal(err)
	}
	done() // server gone

	// A brand-new server over the same directory serves the policy
	// before any device re-uploads.
	_, client2, done2 := newTestServer(t, Config{SnapshotDir: dir})
	defer done2()
	after, round, err := client2.Policy("spotify", "note9")
	if err != nil {
		t.Fatal(err)
	}
	if round != 1 {
		t.Fatalf("restored round = %d", round)
	}
	beforeJSON, _ := core.MarshalTable("spotify", before, true)
	afterJSON, _ := core.MarshalTable("spotify", after, true)
	if string(beforeJSON) != string(afterJSON) {
		t.Fatal("warm-restarted policy differs from pre-restart policy")
	}
}

// TestUploadCellBudgetBoundsHeap: every merge cell holds an exact sum
// whatever its value, so a small body of zero rows must not open
// millions of them. An action count above the codecs' cap fails to
// decode, and a body whose states would take the key past
// maxCellsPerKey is refused before the merger allocates anything.
func TestUploadCellBudgetBoundsHeap(t *testing.T) {
	srv, err := NewServer(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	put := func(device string, body []byte) int {
		req := httptest.NewRequest("PUT", "/v1/table?platform=note9&device="+device, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	zeros := func(actions, states int) []byte {
		row := "[" + strings.Repeat("0,", actions-1) + "0]"
		var b bytes.Buffer
		fmt.Fprintf(&b, `{"app":"spotify","actions":%d,"q":{`, actions)
		for s := 0; s < states; s++ {
			if s > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `"%d":%s`, s, row)
		}
		b.WriteString(`},"visits":{}}`)
		return b.Bytes()
	}

	if code := put("wide", zeros(1<<16+1, 1)); code != http.StatusBadRequest {
		t.Fatalf("upload with %d actions: status %d, want 400", 1<<16+1, code)
	}
	const actions = 1 << 16
	states := maxCellsPerKey/actions + 1
	body := zeros(actions, states)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if code := put("tall", body); code != http.StatusBadRequest {
		t.Fatalf("upload of %d cells: status %d, want 400", states*actions, code)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(srv)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 16<<20 {
		t.Fatalf("refused %d-byte upload left the heap %d MB larger", len(body), grew>>20)
	}
	// The refusal left the key usable by ordinary devices.
	data, err := core.MarshalTable("spotify", devTable(1), true)
	if err != nil {
		t.Fatal(err)
	}
	if code := put("d0", data); code != http.StatusOK {
		t.Fatalf("ordinary upload after the refusals: status %d", code)
	}
}

// TestDeviceTableBytesGauge: /metrics reports the packed bytes of the
// device rows the store holds — keys, rows and visit counts of every
// device, summed over policies.
func TestDeviceTableBytesGauge(t *testing.T) {
	srv, client, done := newTestServer(t, Config{})
	defer done()
	for i, app := range []string{"spotify", "game"} {
		if _, err := client.UploadTable(fmt.Sprint("d", i), "note9", app, devTable(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// devTable holds 6 states, each with a row of 9 values and a visit count.
	perDevice := 8*12 + 8*6*9 + bits.UintSize/8*6
	if got := srv.Store().DeviceTableBytes(); got != int64(2*perDevice) {
		t.Fatalf("DeviceTableBytes = %d, want %d", got, 2*perDevice)
	}
	text, err := client.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("fleetd_device_table_bytes %d\n", 2*perDevice); !strings.Contains(text, want) {
		t.Fatalf("metrics missing %q in:\n%s", want, text)
	}
}

// TestMergeWithoutTablesIsErrNoTables: a key without device tables is
// ErrNoTables from the store, a 404 from /v1/merge, and ErrNoTables
// again from Client.Merge; a bad key stays a 400.
func TestMergeWithoutTablesIsErrNoTables(t *testing.T) {
	srv, client, done := newTestServer(t, Config{})
	defer done()
	if _, _, err := srv.Store().MergeSet(Key{App: "spotify", Platform: "note9"}); !errors.Is(err, ErrNoTables) {
		t.Fatalf("store merge without tables: %v, want ErrNoTables", err)
	}
	if _, err := client.Merge("spotify", "note9"); !errors.Is(err, ErrNoTables) || !strings.Contains(err.Error(), "404") {
		t.Fatalf("client merge without tables: %v, want ErrNoTables from a 404", err)
	}
	if _, err := client.Merge("../x", "note9"); err == nil || errors.Is(err, ErrNoTables) {
		t.Fatalf("merge of a bad key: %v, want a non-ErrNoTables error", err)
	}
}
