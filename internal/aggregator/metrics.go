package aggregator

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// numLabels counts the instrumented edge endpoints.
const numLabels = 8

// Request labels, one per device-facing endpoint (flush is the admin
// drain trigger). The metrics page iterates this list so every counter
// appears even at zero.
var requestLabels = [numLabels]string{"checkin", "upload", "merge", "policy", "apps", "flush", "healthz", "metrics"}

// Metrics is the edge aggregator's instrumentation: per-endpoint
// request/error counters plus the federation-pipeline counters every
// backpressure question starts from (see docs/operations.md for the
// reference table).
type Metrics struct {
	start    time.Time
	requests [numLabels]atomic.Int64
	errors   [numLabels]atomic.Int64

	// rejected counts uploads answered 429 because the upward queue was
	// full — the hard backpressure signal.
	rejected atomic.Int64
	// forwarded counts device tables the root accepted; dropped counts
	// tables the root rejected (and the aggregator discarded).
	forwarded atomic.Int64
	dropped   atomic.Int64
	// flushes / flushFailures count federation pushes by outcome; a
	// failed push requeues its batch.
	flushes       atomic.Int64
	flushFailures atomic.Int64
	// proxied / proxyFallbacks count policy downloads answered by the
	// root versus served from the local merged table because the root
	// was unreachable or had no policy yet.
	proxied        atomic.Int64
	proxyFallbacks atomic.Int64
}

// NewMetrics starts the uptime clock.
func NewMetrics() *Metrics { return &Metrics{start: time.Now()} }

func labelIndex(label string) int {
	for i, l := range requestLabels {
		if l == label {
			return i
		}
	}
	panic("aggregator: unknown metrics label " + label)
}

func (m *Metrics) request(idx int) { m.requests[idx].Add(1) }
func (m *Metrics) errored(idx int) { m.errors[idx].Add(1) }

// Requests returns the total request count across endpoints.
func (m *Metrics) Requests() int64 {
	var n int64
	for i := range m.requests {
		n += m.requests[i].Load()
	}
	return n
}

// Forwarded returns how many device tables the root has accepted.
func (m *Metrics) Forwarded() int64 { return m.forwarded.Load() }

// Rejected returns how many uploads were answered 429 (queue full).
func (m *Metrics) Rejected() int64 { return m.rejected.Load() }

// write renders the Prometheus text exposition. Queue and store gauges
// are passed in so the page reflects live state.
func (m *Metrics) write(w io.Writer, pending, queueLimit, keys, merged, uploads, devices int, tableBytes int64) {
	fmt.Fprintf(w, "# HELP agg_uptime_seconds Seconds since the aggregator started.\n")
	fmt.Fprintf(w, "# TYPE agg_uptime_seconds gauge\n")
	fmt.Fprintf(w, "agg_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP agg_requests_total Requests served, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE agg_requests_total counter\n")
	for i, l := range requestLabels {
		fmt.Fprintf(w, "agg_requests_total{endpoint=%q} %d\n", l, m.requests[i].Load())
	}
	fmt.Fprintf(w, "# HELP agg_request_errors_total Requests answered with an error status, by endpoint.\n")
	fmt.Fprintf(w, "# TYPE agg_request_errors_total counter\n")
	for i, l := range requestLabels {
		fmt.Fprintf(w, "agg_request_errors_total{endpoint=%q} %d\n", l, m.errors[i].Load())
	}

	fmt.Fprintf(w, "# HELP agg_pending_uploads Device tables queued for upward federation.\n")
	fmt.Fprintf(w, "# TYPE agg_pending_uploads gauge\n")
	fmt.Fprintf(w, "agg_pending_uploads %d\n", pending)
	fmt.Fprintf(w, "# HELP agg_queue_limit Upward queue capacity (distinct policy-device pairs).\n")
	fmt.Fprintf(w, "# TYPE agg_queue_limit gauge\n")
	fmt.Fprintf(w, "agg_queue_limit %d\n", queueLimit)
	fmt.Fprintf(w, "# HELP agg_rejected_uploads_total Uploads answered 429 because the upward queue was full.\n")
	fmt.Fprintf(w, "# TYPE agg_rejected_uploads_total counter\n")
	fmt.Fprintf(w, "agg_rejected_uploads_total %d\n", m.rejected.Load())
	fmt.Fprintf(w, "# HELP agg_forwarded_tables_total Device tables the root accepted via federation pushes.\n")
	fmt.Fprintf(w, "# TYPE agg_forwarded_tables_total counter\n")
	fmt.Fprintf(w, "agg_forwarded_tables_total %d\n", m.forwarded.Load())
	fmt.Fprintf(w, "# HELP agg_dropped_tables_total Device tables the root rejected and the aggregator discarded.\n")
	fmt.Fprintf(w, "# TYPE agg_dropped_tables_total counter\n")
	fmt.Fprintf(w, "agg_dropped_tables_total %d\n", m.dropped.Load())
	fmt.Fprintf(w, "# HELP agg_flush_total Federation pushes to the root, by outcome.\n")
	fmt.Fprintf(w, "# TYPE agg_flush_total counter\n")
	fmt.Fprintf(w, "agg_flush_total{result=\"ok\"} %d\n", m.flushes.Load())
	fmt.Fprintf(w, "agg_flush_total{result=\"error\"} %d\n", m.flushFailures.Load())
	fmt.Fprintf(w, "# HELP agg_policy_proxied_total Policy downloads answered by the root through the proxy.\n")
	fmt.Fprintf(w, "# TYPE agg_policy_proxied_total counter\n")
	fmt.Fprintf(w, "agg_policy_proxied_total %d\n", m.proxied.Load())
	fmt.Fprintf(w, "# HELP agg_policy_local_fallback_total Policy downloads served from the local merged table (root unreachable or without a policy).\n")
	fmt.Fprintf(w, "# TYPE agg_policy_local_fallback_total counter\n")
	fmt.Fprintf(w, "agg_policy_local_fallback_total %d\n", m.proxyFallbacks.Load())

	fmt.Fprintf(w, "# HELP agg_policies Known app-platform policies in the local store (merged = with a local table).\n")
	fmt.Fprintf(w, "# TYPE agg_policies gauge\n")
	fmt.Fprintf(w, "agg_policies{state=\"known\"} %d\n", keys)
	fmt.Fprintf(w, "agg_policies{state=\"merged\"} %d\n", merged)
	fmt.Fprintf(w, "# HELP agg_device_tables Device tables held in the local store.\n")
	fmt.Fprintf(w, "# TYPE agg_device_tables gauge\n")
	fmt.Fprintf(w, "agg_device_tables %d\n", uploads)
	fmt.Fprintf(w, "# HELP fleetd_device_table_bytes Bytes of packed device rows the local store holds for merging, summed over policies.\n")
	fmt.Fprintf(w, "# TYPE fleetd_device_table_bytes gauge\n")
	fmt.Fprintf(w, "fleetd_device_table_bytes %d\n", tableBytes)
	fmt.Fprintf(w, "# HELP agg_devices_seen Distinct devices that have checked in at this edge.\n")
	fmt.Fprintf(w, "# TYPE agg_devices_seen gauge\n")
	fmt.Fprintf(w, "agg_devices_seen %d\n", devices)
}
