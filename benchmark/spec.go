package main

// This file is the benchmark's vocabulary: every workload and metric
// name the program may emit. BENCHMARK.json at the repository root
// repeats it for the driver; TestSpecMatchesBenchmarkJSON keeps the
// two identical.

// metricSpec names one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change is
// rejected; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadSpec names one workload and records why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"direct_cold", "every input a cache miss: the full 4-rung walk plus the cache write path and the JSON envelope do the work"},
	{"direct_repeat", "64 hot inputs already cached at the top rung: the walk is bypassed, envelope and cache read do everything"},
	{"deadline_open", "open-loop Poisson arrivals with 0.4-6 ms deadlines: which rung arrives in time; admission, scheduler, latency model"},
	{"routed_repeat", "router with affinity over 2 replicas, 70% zipf hot keys and 30% misses: the hop, placement, mixed cache reads and writes"},
	{"lib_batch8", "in-process engine walking batches of 8 images: the batched nn/tensor paths that at most 2 in-flight requests never trigger"},
}

// endToEnd lists what a caller of the system sees. Every workload
// emits every one of them, and none is ever 0. A bound is at least
// three times the widest spread (interquartile range over median, ten
// seeds) the metric showed on any workload on the reference box, whose
// speed drifts by several per cent from minute to minute; 0.25 is the
// most the driver allows.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"client_p50_ms", "ms", "lower", 0.25},
	{"client_p95_ms", "ms", "lower", 0.25},
	{"goodput_rps", "1/s", "higher", 0.25},
	{"deadline_hit_rate", "share", "higher", 0.25},
	{"mean_rung", "rung", "higher", 0.06},
	{"cpu_ms_per_answer", "ms", "lower", 0.20},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayer lists the single-layer metrics of the traced run, prefixed
// by the module they measure. A metric a workload does not exercise
// is reported as 0 there.
var perLayer = []metricSpec{
	{Name: "client.sent", Unit: "count", Better: "higher"},
	{Name: "client.ok", Unit: "count", Better: "higher"},
	{Name: "client.failed", Unit: "count", Better: "lower"},
	{Name: "client.fail_rate", Unit: "share", Better: "lower"},
	{Name: "client.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.p99_ms", Unit: "ms", Better: "lower"},

	{Name: "stepserve.envelope_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "stepserve.decode_us", Unit: "us", Better: "lower"},
	{Name: "stepserve.encode_us", Unit: "us", Better: "lower"},
	{Name: "stepserve.req_bytes", Unit: "bytes", Better: "lower"},
	{Name: "stepserve.resp_bytes", Unit: "bytes", Better: "lower"},

	{Name: "cluster.hop_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.remote_submit_us", Unit: "us", Better: "lower"},
	{Name: "cluster.route_pick_us", Unit: "us", Better: "lower"},
	{Name: "cluster.affinity_hit_share", Unit: "share", Better: "higher"},
	{Name: "cluster.spill_share", Unit: "share", Better: "lower"},
	{Name: "cluster.retries", Unit: "count", Better: "lower"},
	{Name: "cluster.transport_errors", Unit: "count", Better: "lower"},

	{Name: "serve.service_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.queue_wait_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.submit_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.rejected_share", Unit: "share", Better: "lower"},
	{Name: "serve.rung_share_1", Unit: "share", Better: "lower"},
	{Name: "serve.rung_share_2", Unit: "share", Better: "lower"},
	{Name: "serve.rung_share_3", Unit: "share", Better: "higher"},
	{Name: "serve.rung_share_4", Unit: "share", Better: "higher"},
	{Name: "serve.refreshes", Unit: "count", Better: "lower"},
	{Name: "serve.deadline_met_server_share", Unit: "share", Better: "higher"},
	{Name: "serve.kmacs_per_answer", Unit: "kMAC", Better: "lower"},

	{Name: "cache.hit_share", Unit: "share", Better: "higher"},
	{Name: "cache.resume_share", Unit: "share", Better: "higher"},
	{Name: "cache.evictions", Unit: "count", Better: "lower"},
	{Name: "cache.bytes_per_entry", Unit: "bytes", Better: "lower"},
	{Name: "cache.keyof_us", Unit: "us", Better: "lower"},
	{Name: "cache.get_us", Unit: "us", Better: "lower"},
	{Name: "cache.put_us", Unit: "us", Better: "lower"},

	{Name: "governor.plan_us", Unit: "us", Better: "lower"},
	{Name: "governor.tick_us", Unit: "us", Better: "lower"},
	{Name: "governor.step_est_ratio", Unit: "ratio", Better: "lower"},

	{Name: "infer.step1_us", Unit: "us", Better: "lower"},
	{Name: "infer.step2_us", Unit: "us", Better: "lower"},
	{Name: "infer.step3_us", Unit: "us", Better: "lower"},
	{Name: "infer.step4_us", Unit: "us", Better: "lower"},
	{Name: "infer.walk_b1_us", Unit: "us", Better: "lower"},
	{Name: "infer.walk_b1_wN_us", Unit: "us", Better: "lower"},
	{Name: "infer.walk_b8_us", Unit: "us", Better: "lower"},
	{Name: "infer.gmacs_per_s", Unit: "GMAC/s", Better: "higher"},
	{Name: "infer.kmacs_step1", Unit: "kMAC", Better: "lower"},
	{Name: "infer.kmacs_step2", Unit: "kMAC", Better: "lower"},
	{Name: "infer.kmacs_step3", Unit: "kMAC", Better: "lower"},
	{Name: "infer.kmacs_step4", Unit: "kMAC", Better: "lower"},
	{Name: "infer.reuse_mac_ratio", Unit: "ratio", Better: "lower"},
	{Name: "infer.export_us", Unit: "us", Better: "lower"},
	{Name: "infer.import_us", Unit: "us", Better: "lower"},
	{Name: "infer.state_bytes", Unit: "bytes", Better: "lower"},

	{Name: "nn.conv_us", Unit: "us", Better: "lower"},
	{Name: "nn.dense_us", Unit: "us", Better: "lower"},
	{Name: "nn.pool_us", Unit: "us", Better: "lower"},
	{Name: "nn.relu_us", Unit: "us", Better: "lower"},
	{Name: "nn.other_us", Unit: "us", Better: "lower"},
	{Name: "nn.forward_b8_us", Unit: "us", Better: "lower"},
	{Name: "nn.fwdbwd_b32_us", Unit: "us", Better: "lower"},

	{Name: "tensor.gemm_us", Unit: "us", Better: "lower"},
	{Name: "tensor.im2col_us", Unit: "us", Better: "lower"},
	{Name: "tensor.gemm_share", Unit: "share", Better: "lower"},
	{Name: "tensor.gemm_peak_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.gemm_flops", Unit: "count", Better: "lower"},
	{Name: "tensor.bytes_moved", Unit: "bytes", Better: "lower"},

	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// metrics collects one run's values by name.
type metrics map[string]float64
