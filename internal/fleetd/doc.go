// Package fleetd is the fleet policy server: the network-facing half of
// the paper's Section IV-C, where Q-table training is offloaded to a
// server and shared across a fleet of devices.
//
// The server exposes an HTTP/JSON API:
//
//	POST /v1/checkin   device check-in: announces {device, platform} and
//	                   learns which merged policies exist for it
//	PUT  /v1/table     upload one device-trained Q-table (the JSON that
//	                   core.MarshalTable produces)
//	POST /v1/merge     run a federated merge round for one app×platform
//	                   (visit-weighted averaging, cloud.Merger); 404
//	                   (ErrNoTables) while the key holds no tables
//	POST /v1/federate  an edge aggregator's batched push: per device a
//	                   full table or a delta of its changed states on
//	                   a base generation (see FederatedUpload)
//	GET  /v1/policy    download the current merged policy for app×platform
//	GET  /v1/apps      list known policies (optionally per platform)
//	GET  /healthz      liveness + table/device counts
//	GET  /metrics      Prometheus-style request counts and merge latencies
//
// Behind the handlers sits Store, a sharded, mutex-striped in-memory
// table store keyed by app×platform. Each key keeps exact merge sums
// over every device's latest upload, so a merged value is the correctly
// rounded visit-weighted mean for any upload order and the served
// policy is a function of the upload set alone — a fleet driven
// concurrently converges to the byte-identical table a serial
// cloud.Fleet.MergeApp of the same uploads produces (pinned by the
// end-to-end test in internal/fleetsim).
//
// The store keeps no map-based table per device: each key's
// cloud.Merger owns every device's latest rows as a learner.PackedSet
// (sorted state keys and one flat, pointer-free row slab per role), so
// a large fleet costs the garbage collector a few pointers per device.
// A full upload replaces the device's rows, reusing their arrays when
// the shape holds; a delta upload (X-Fleet-Base-Gen, see UploadDelta)
// is validated in full and then patched into them in place. The
// client's DeltaUploader keeps its acked base in the same packed form.
// /metrics reports the packed bytes held as fleetd_device_table_bytes.
//
// When configured with a snapshot directory the server persists each
// merged table through core.Store (atomic temp-file + rename writes)
// after every merge round, and a restarted server warms itself from the
// same directory, serving the last merged policies before any device
// re-uploads.
package fleetd
