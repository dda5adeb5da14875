// Package bench is the harness behind cmd/psibench, the repository's
// benchmark: six named workloads, nine end-to-end metrics with fixed
// regression bounds plus the failure count, and per-layer metrics from a
// separate traced run.
// It measures the program from outside, through seams the program
// already exposes; see README.md in this directory for the catalogue and
// for which layer metric should move which end-to-end metric where.
package bench

// WorkloadInfo names one workload and records why it exists.
type WorkloadInfo struct {
	Name string
	Why  string
}

// Workload names are normative: later issues refer to them verbatim.
const (
	IsectECPipe   = "isect_ec_pipe"
	FourQRPipe    = "four_qr_pipe"
	JoinT1Stream  = "join_t1_stream"
	IsectECShard4 = "isect_ec_shard4"
	ServeWarmTCP  = "serve_warm_tcp"
	StandingChurn = "standing_churn"
)

// Workloads lists the six workloads in the order a full run executes
// them.  BENCHMARK.json carries the same list (catalog_test.go).
var Workloads = []WorkloadInfo{
	{IsectECPipe, "cold ec25519 intersection of 8192x8192 over a pipe: scalar-mults and hash-to-curve are >=95% of CPU, so a bulk-crypto or element-representation gain shows here first"},
	{FourQRPipe, "all four protocols on qr1024 at 256x256: every protocol body in core on the safe-prime backend, where big.Int allocations dominate, so an ec-only win that costs QR shows"},
	{JoinT1Stream, "chunked equijoin of 2000 records with 256-byte ext over a modelled T1 link: wire, transport and kenc own the wall, so only byte savings or overlap move it and a C_e speed-up must not"},
	{IsectECShard4, "4-shard ec25519 intersection of 4096x4096 through transport.Mux: guards the sharded path against a classic-path gain that costs it"},
	{ServeWarmTCP, "2 clients rotating the four protocols against a cache-warm party.Server on loopback TCP: the series-of-queries use, with real sockets and per-session set-up on the path"},
	{StandingChurn, "standing intersection on an 8192-row table with 1% churn per op: the write path (change log, ApplyDelta, pushed updates) that the bulk workloads bypass"},
}

// Direction says which way a metric gets worse.
type Direction string

// Metric directions, as BENCHMARK.json spells them.
const (
	Lower  Direction = "lower"
	Higher Direction = "higher"
)

// MetricInfo describes one reported metric.  Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type MetricInfo struct {
	Name   string
	Unit   string
	Better Direction
	Bound  float64
}

// EndToEnd lists what a user of the system sees, measured with obs
// detached and no decorators.  failed_share — the tenth end-to-end
// quantity — is reported through the result line's attempted/failed
// counts instead, because it is 0 on every healthy run and a regression
// bound is a share of the parent's value.
var EndToEnd = []MetricInfo{
	{"setup_s", "s", Lower, 0.25},
	{"op_p50_s", "s", Lower, 0.08},
	{"op_p90_s", "s", Lower, 0.10},
	{"values_per_s", "1/s", Higher, 0.08},
	{"cpu_s_per_op", "s", Lower, 0.08},
	{"wire_bytes_per_op", "B", Lower, 0.01},
	{"allocs_per_value", "1", Lower, 0.03},
	{"alloc_bytes_per_value", "B", Lower, 0.03},
	{"peak_rss_mb", "MB", Lower, 0.20},
}

// PerLayer lists the traced run's metrics; the prefix is the module.
// Counts, busy times and byte totals are per traced op.  "Better" is the
// direction an optimisation of that layer would move the number.
var PerLayer = []MetricInfo{
	// group (both backends)
	{Name: "group.apply.count", Unit: "count", Better: Lower},
	{Name: "group.apply.busy_s", Unit: "s", Better: Lower},
	{Name: "group.apply.ns_per_call", Unit: "ns", Better: Lower},
	{Name: "group.contains.count", Unit: "count", Better: Lower},
	{Name: "group.contains.busy_s", Unit: "s", Better: Lower},
	{Name: "group.map_to_element.count", Unit: "count", Better: Lower},
	{Name: "group.map_to_element.busy_s", Unit: "s", Better: Lower},
	{Name: "group.apply.allocs_per_call", Unit: "1", Better: Lower},
	{Name: "group.apply.alloc_bytes_per_call", Unit: "B", Better: Lower},
	{Name: "group.contains.allocs_per_call", Unit: "1", Better: Lower},
	// commutative
	{Name: "commutative.encrypt.count", Unit: "count", Better: Lower},
	{Name: "commutative.decrypt.count", Unit: "count", Better: Lower},
	{Name: "commutative.keygen.count", Unit: "count", Better: Lower},
	{Name: "commutative.encrypt.busy_s", Unit: "s", Better: Lower},
	{Name: "commutative.decrypt.busy_s", Unit: "s", Better: Lower},
	{Name: "commutative.self_s", Unit: "s", Better: Lower},
	{Name: "commutative.encrypt_all.values_per_s", Unit: "1/s", Better: Higher},
	{Name: "commutative.encrypt_all.parallel_efficiency", Unit: "1", Better: Higher},
	{Name: "commutative.cachedset.build_s", Unit: "s", Better: Lower},
	{Name: "commutative.cachedset.memory_bytes", Unit: "B", Better: Lower},
	{Name: "commutative.apply_delta.count", Unit: "count", Better: Lower},
	{Name: "commutative.apply_delta.busy_s", Unit: "s", Better: Lower},
	// oracle
	{Name: "oracle.hash.count", Unit: "count", Better: Lower},
	{Name: "oracle.hash.busy_s", Unit: "s", Better: Lower},
	{Name: "oracle.hash.ns_per_value", Unit: "ns", Better: Lower},
	{Name: "oracle.xof_self_s", Unit: "s", Better: Lower},
	{Name: "oracle.detect_collisions.busy_s", Unit: "s", Better: Lower},
	// kenc
	{Name: "kenc.encrypt.count", Unit: "count", Better: Lower},
	{Name: "kenc.encrypt.busy_s", Unit: "s", Better: Lower},
	{Name: "kenc.encrypt.bytes", Unit: "B", Better: Lower},
	{Name: "kenc.decrypt.count", Unit: "count", Better: Lower},
	{Name: "kenc.decrypt.busy_s", Unit: "s", Better: Lower},
	{Name: "kenc.ciphertext_overhead_bytes_per_record", Unit: "B", Better: Lower},
	// wire
	{Name: "wire.encode.count", Unit: "count", Better: Lower},
	{Name: "wire.encode.busy_s", Unit: "s", Better: Lower},
	{Name: "wire.decode.count", Unit: "count", Better: Lower},
	{Name: "wire.decode.busy_s", Unit: "s", Better: Lower},
	{Name: "wire.decode.allocs_per_elem", Unit: "1", Better: Lower},
	{Name: "wire.frames_per_op", Unit: "count", Better: Lower},
	{Name: "wire.bytes_per_elem", Unit: "B", Better: Lower},
	{Name: "wire.header_bytes", Unit: "B", Better: Lower},
	// transport
	{Name: "transport.send.count", Unit: "count", Better: Lower},
	{Name: "transport.send.busy_s", Unit: "s", Better: Lower},
	{Name: "transport.send.bytes", Unit: "B", Better: Lower},
	{Name: "transport.recv.count", Unit: "count", Better: Lower},
	{Name: "transport.recv_wait_s.receiver", Unit: "s", Better: Lower},
	{Name: "transport.recv_wait_s.sender", Unit: "s", Better: Lower},
	{Name: "transport.framing_overhead_bytes", Unit: "B", Better: Lower},
	{Name: "transport.link_busy_share", Unit: "1", Better: Lower},
	{Name: "transport.mux.frames", Unit: "count", Better: Lower},
	{Name: "transport.mux.control_frames", Unit: "count", Better: Lower},
	{Name: "transport.tcp.dial_s", Unit: "s", Better: Lower},
	// core
	{Name: "core.intersection.wall_s", Unit: "s", Better: Lower},
	{Name: "core.equijoin.wall_s", Unit: "s", Better: Lower},
	{Name: "core.intersection_size.wall_s", Unit: "s", Better: Lower},
	{Name: "core.equijoin_size.wall_s", Unit: "s", Better: Lower},
	{Name: "core.receiver.wall_s", Unit: "s", Better: Lower},
	{Name: "core.sender.wall_s", Unit: "s", Better: Lower},
	{Name: "core.receiver.self_s", Unit: "s", Better: Lower},
	{Name: "core.sender.self_s", Unit: "s", Better: Lower},
	{Name: "core.unattributed_cpu_share", Unit: "1", Better: Lower},
	{Name: "core.cache.hits", Unit: "count", Better: Higher},
	{Name: "core.cache.misses", Unit: "count", Better: Lower},
	{Name: "core.cache.hit_ratio", Unit: "1", Better: Higher},
	{Name: "core.cache.bytes", Unit: "B", Better: Lower},
	{Name: "core.shard.wall_ratio_vs_k1", Unit: "1", Better: Lower},
	{Name: "core.standing.pushes_per_op", Unit: "count", Better: Lower},
	{Name: "core.standing.update_bytes_per_op", Unit: "B", Better: Lower},
	// party
	{Name: "party.session_setup_s", Unit: "s", Better: Lower},
	{Name: "party.sessions.count", Unit: "count", Better: Higher},
	{Name: "party.sessions.failed", Unit: "count", Better: Lower},
	{Name: "party.sessions.rejected", Unit: "count", Better: Lower},
	// reldb
	{Name: "reldb.distinct_values.busy_s", Unit: "s", Better: Lower},
	{Name: "reldb.ext_payloads.busy_s", Unit: "s", Better: Lower},
	{Name: "reldb.mutation.busy_s", Unit: "s", Better: Lower},
	{Name: "reldb.delta_since.count", Unit: "count", Better: Lower},
	{Name: "reldb.delta_since.busy_s", Unit: "s", Better: Lower},
	// obs (the program's own census, and the cost of being traced)
	{Name: "obs.counters.modexp", Unit: "count", Better: Lower},
	{Name: "obs.counters.oracle_hashes", Unit: "count", Better: Lower},
	{Name: "obs.counters.frames", Unit: "count", Better: Lower},
	{Name: "obs.counters.wire_bytes", Unit: "B", Better: Lower},
	{Name: "obs.phase.hash_to_group_s", Unit: "s", Better: Lower},
	{Name: "obs.phase.bulk_encrypt_s", Unit: "s", Better: Lower},
	{Name: "obs.phase.exchange_s", Unit: "s", Better: Lower},
	{Name: "obs.phase.match_s", Unit: "s", Better: Lower},
	{Name: "obs.traced_overhead_share", Unit: "1", Better: Lower},
	// costmodel (the paper's section 6 method turned into residuals)
	{Name: "costmodel.ce_predicted", Unit: "count", Better: Lower},
	{Name: "costmodel.ce_residual", Unit: "count", Better: Lower},
	{Name: "costmodel.wire_bytes_predicted", Unit: "B", Better: Lower},
	{Name: "costmodel.wire_bytes_residual", Unit: "B", Better: Lower},
	{Name: "costmodel.predicted_wall_s", Unit: "s", Better: Lower},
	{Name: "costmodel.wall_residual_share", Unit: "1", Better: Lower},
	// go_runtime (the one pseudo-layer that is not a module)
	{Name: "go_runtime.gc_cycles_per_op", Unit: "count", Better: Lower},
	{Name: "go_runtime.gc_pause_s_per_op", Unit: "s", Better: Lower},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps metric name to value.
type Metrics map[string]Metric

// newMetrics returns a map holding every metric of infos at 0, so a
// layer that does no work on a workload still reports its metrics.
func newMetrics(infos []MetricInfo) Metrics {
	m := make(Metrics, len(infos))
	for _, in := range infos {
		m[in.Name] = Metric{Unit: in.Unit}
	}
	return m
}

// set stores a value under a catalogued name; an unknown name is a bug
// in the harness, not an input error.
func (m Metrics) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	cur.Value = v
	m[name] = cur
}
