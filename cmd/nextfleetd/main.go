// Command nextfleetd runs the fleet policy server — the paper's
// Section IV-C cloud trainer as a network service — or benchmarks it
// against a simulated device fleet.
//
// Serve mode (default): listen for device check-ins, Q-table uploads,
// federated merge rounds and policy downloads, optionally persisting
// every merged policy to a snapshot directory that the next launch
// warm-starts from:
//
//	nextfleetd -addr 127.0.0.1:8077 -snapshot /var/lib/nextfleetd
//
// Bench mode: spin an in-process server, drive it with N simulated
// devices (each trains on the sim engine, then checks in, uploads,
// merges and pulls), and print throughput:
//
//	nextfleetd -bench 64 -app spotify -platform note9 -seed 42
//
// Rollout mode: pass -rollout to enable the policy lifecycle in serve
// mode (versioned artifacts, staged canary rollout, automatic
// QoS/energy rollback), or combine -bench with -rollout to run a full
// A/B lifecycle against the simulated fleet:
//
//	nextfleetd -addr 127.0.0.1:8077 -rollout
//	nextfleetd -bench 16 -rollout -app chrome -seconds 6 -seed 1
//
// Aggregator mode: run an edge aggregator of the two-tier topology in
// front of a root server. Devices talk to the aggregator; it merges
// locally, queues which devices' rows changed, and federates those rows
// upward in batches (answering 429 + Retry-After when the queue fills). Combine
// -bench with -aggregators to benchmark the two-tier path in-process:
//
//	nextfleetd -aggregator -root http://127.0.0.1:8077 -agg-id edge-west
//	nextfleetd -bench 64 -aggregators 4
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"nextdvfs"
	"nextdvfs/internal/fleetsim"
	"nextdvfs/internal/platform"
	"nextdvfs/internal/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8077", "listen address (serve mode)")
	snapshot := flag.String("snapshot", "", "snapshot directory: merged policies persist here and warm-start the next launch")
	bench := flag.Int("bench", 0, "bench mode: drive an in-process server with N simulated devices and exit")
	app := flag.String("app", workload.NameSpotify, "app the simulated fleet trains (bench mode)")
	plat := flag.String("platform", platform.DefaultName, "simulated device: "+strings.Join(platform.Names(), ", "))
	sessions := flag.Int("sessions", 1, "training sessions per device (bench mode)")
	seconds := flag.Float64("seconds", 8, "simulated seconds per training session (bench mode)")
	seed := flag.Int64("seed", 42, "base seed; device i trains from seed+(i+1)*7919")
	parallel := flag.Int("parallel", 0, "device worker-pool size (0 = GOMAXPROCS)")
	learnerName := flag.String("learner", "", "TD update rule every device trains with (bench mode; \"\" = watkins)")
	rollout := flag.Bool("rollout", false, "enable the policy lifecycle: versioned artifacts, staged canary rollout, automatic rollback (serve mode), or run an A/B lifecycle (bench mode)")
	sabotage := flag.Bool("sabotage", false, "rollout bench: corrupt the candidate generation's uploads so the canary regresses and the server rolls back")
	aggMode := flag.Bool("aggregator", false, "serve an edge aggregator instead of the root fleet server")
	root := flag.String("root", "", "aggregator mode: root fleet server base URL (empty = standalone edge)")
	aggID := flag.String("agg-id", "edge", "aggregator mode: this edge's name in federation pushes")
	queue := flag.Int("queue", 0, "aggregator mode: upward queue capacity in (policy, device) pairs (0 = 4096)")
	flushEvery := flag.Duration("flush-every", 0, "aggregator mode: background federation cadence (0 = 500ms, negative disables)")
	aggregators := flag.Int("aggregators", 0, "bench mode: route devices through this many in-process edge aggregators (two-tier topology)")
	binary := flag.Bool("binary", false, "bench mode: devices speak the binary table wire codec (Content-Type/Accept negotiation; merges stay byte-identical)")
	delta := flag.Bool("delta", false, "bench mode: re-uploads send X-Fleet-Base-Gen deltas instead of full tables (requires -epochs > 1 to matter)")
	epochs := flag.Int("epochs", 0, "bench mode: repeat the check-in cycle (upload, merge, policy pull) this many times, one extra training session per device between epochs (0/1 = single cycle)")
	flag.Parse()

	if *bench > 0 {
		runBench(benchConfig{
			devices: *bench, app: *app, plat: *plat, sessions: *sessions,
			seconds: *seconds, seed: *seed, parallel: *parallel,
			learner: *learnerName, rollout: *rollout, sabotage: *sabotage,
			aggregators: *aggregators, binary: *binary, delta: *delta, epochs: *epochs,
		})
		return
	}
	if *aggMode {
		// The root owns the default port; an aggregator that wasn't given
		// an explicit -addr binds one above so the two can share a host.
		aggAddr := "127.0.0.1:8078"
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "addr" {
				aggAddr = *addr
			}
		})
		serveAggregator(aggAddr, *aggID, *root, *queue, *flushEvery)
		return
	}
	serve(*addr, *snapshot, *rollout)
}

func serve(addr, snapshot string, enableRollout bool) {
	opts := nextdvfs.FleetServeOptions{Addr: addr, SnapshotDir: snapshot}
	if enableRollout {
		opts.Rollout = &nextdvfs.RolloutConfig{}
	}
	srv, err := nextdvfs.ServeFleet(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nextfleetd:", err)
		os.Exit(1)
	}
	fmt.Println("nextfleetd serving on", srv.URL())
	if snapshot != "" {
		fmt.Println("  snapshots:", snapshot)
	}
	fmt.Println("  POST /v1/checkin   device check-in")
	fmt.Println("  PUT  /v1/table     upload a device-trained Q-table")
	fmt.Println("  POST /v1/merge     run a federated merge round")
	fmt.Println("  GET  /v1/policy    download the merged policy")
	fmt.Println("  GET  /v1/apps      list known policies")
	if enableRollout {
		fmt.Println("  GET  /v1/rollout   staged-rollout status (versions, stage, cohort reports)")
		fmt.Println("  POST /v1/report    device QoS/energy report for the active candidate")
	}
	fmt.Println("  GET  /healthz      liveness")
	fmt.Println("  GET  /metrics      request counts and merge latencies")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("\nnextfleetd: shutting down")
	srv.Close()
}

func serveAggregator(addr, id, root string, queue int, flushEvery time.Duration) {
	srv, err := nextdvfs.ServeAggregator(nextdvfs.AggregatorOptions{
		Addr: addr, ID: id, Root: root, QueueLimit: queue, FlushEvery: flushEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nextfleetd:", err)
		os.Exit(1)
	}
	fmt.Println("nextfleetd aggregator", id, "serving on", srv.URL())
	if root != "" {
		fmt.Println("  federating to root:", root)
	} else {
		fmt.Println("  standalone edge: local merges only, no upward federation")
	}
	fmt.Println("  POST /v1/checkin   device check-in")
	fmt.Println("  PUT  /v1/table     upload a device-trained Q-table (429 + Retry-After when the queue is full)")
	fmt.Println("  POST /v1/merge     run a local merge round")
	fmt.Println("  GET  /v1/policy    download a policy (proxied to the root, local fallback)")
	fmt.Println("  GET  /v1/apps      list local policies")
	fmt.Println("  POST /v1/flush     federate queued tables to the root now")
	fmt.Println("  GET  /healthz      liveness and queue depth")
	fmt.Println("  GET  /metrics      pipeline counters (pending, forwarded, rejected, fallbacks)")

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	<-stop
	fmt.Println("\nnextfleetd: aggregator shutting down")
	if n, err := srv.Flush(); err == nil && n > 0 {
		fmt.Printf("  drained %d queued tables to the root\n", n)
	}
	srv.Close()
}

// benchConfig keeps bench mode's flag plumbing in one place.
type benchConfig struct {
	devices, sessions, parallel, aggregators, epochs int
	app, plat, learner                               string
	seconds                                          float64
	seed                                             int64
	rollout, sabotage, binary, delta                 bool
}

func runBench(c benchConfig) {
	opts := fleetsim.Options{
		Devices: c.devices, App: c.app, Platform: c.plat,
		Sessions: c.sessions, SessionSecs: c.seconds,
		Seed: c.seed, Parallel: c.parallel, Learner: c.learner,
		Aggregators: c.aggregators,
		Binary:      c.binary, DeltaUploads: c.delta, Epochs: c.epochs,
	}
	wire := ""
	if c.binary {
		wire = ", binary wire"
	}
	if c.delta {
		wire += ", delta uploads"
	}
	switch {
	case c.rollout:
		opts.Rollout = &fleetsim.RolloutOptions{Sabotage: c.sabotage}
		fmt.Printf("== fleet rollout A/B: %d devices × %d session(s) of %s on %s%s ==\n", c.devices, c.sessions, c.app, c.plat, wire)
	case c.aggregators > 0:
		fmt.Printf("== fleet bench: %d devices → %d aggregators × %d session(s) of %s on %s%s ==\n", c.devices, c.aggregators, c.sessions, c.app, c.plat, wire)
	case c.epochs > 1:
		fmt.Printf("== fleet bench: %d devices × %d session(s) of %s on %s, %d check-in epochs%s ==\n", c.devices, c.sessions, c.app, c.plat, c.epochs, wire)
	default:
		fmt.Printf("== fleet bench: %d devices × %d session(s) of %s on %s%s ==\n", c.devices, c.sessions, c.app, c.plat, wire)
	}
	report, err := nextdvfs.BenchFleet(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nextfleetd:", err)
		os.Exit(1)
	}
	report.WriteSummary(os.Stdout)
	if report.Errors > 0 {
		os.Exit(1)
	}
}
