package main

// metricSpec is one entry of the metric catalog; BENCHMARK.json lists the
// same names, units and directions (a self-test keeps the two in step).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics an untraced run prints for every workload.
// cpu_per_op is the process CPU time per unit of work, in units of the CPU
// time of the benchmark's reference work (see reference.go). The unit of
// work is the workload's own: a simulated second (mesh, sampled), one
// checked run (campaign), one answered serve query (live). The wall-clock
// figures and the raw CPU time are per-layer metrics.
var endToEnd = []metricSpec{
	{"cpu_per_op", "ref", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run prints for every workload. A layer
// a workload does not use reads 0 there; README.md maps each metric to the
// end-to-end metric and workload it should move.
var perLayer = []metricSpec{
	{"wall.throughput", "1/s", "higher"},
	{"wall.latency_p50_us", "us", "lower"},
	{"wall.latency_p99_us", "us", "lower"},
	{"host.cpu_ms_per_op", "ms", "lower"},
	{"host.ref_ms", "ms", "lower"},
	{"des.events", "count", "lower"},
	{"des.ns_per_event", "ns", "lower"},
	{"des.shard_speedup", "x", "higher"},
	{"network.msgs", "count", "lower"},
	{"network.bytes", "B", "lower"},
	{"network.msgs_per_sync", "count", "lower"},
	{"network.ns_per_msg", "ns", "lower"},
	{"protocol.timeout_ratio", "ratio", "lower"},
	{"protocol.sampler_ns", "ns", "lower"},
	{"core.converge_ns", "ns", "lower"},
	{"core.syncs", "count", "higher"},
	{"core.skip_ratio", "ratio", "lower"},
	{"core.wayoff_ratio", "ratio", "lower"},
	{"metrics.samples", "count", "lower"},
	{"metrics.report_ms", "ms", "lower"},
	{"check.overhead_ratio", "ratio", "lower"},
	{"check.violations", "count", "lower"},
	{"campaign.gen_us", "us", "lower"},
	{"campaign.pool_efficiency", "ratio", "higher"},
	{"scenario.run_ms_p50", "ms", "lower"},
	{"scenario.run_ms_p99", "ms", "lower"},
	{"adversary.corruptions_per_run", "count", "lower"},
	{"livenet.round_us_p50", "us", "lower"},
	{"livenet.round_us_p90", "us", "lower"},
	{"livenet.rtt_us_p50", "us", "lower"},
	{"livenet.retries", "count", "lower"},
	{"livenet.timeouts", "count", "lower"},
	{"livenet.auth_failures", "count", "lower"},
	{"livenet.read_ns", "ns", "lower"},
	{"livenet.codec_ns", "ns", "lower"},
	{"livenet.udp_rtt_us_p50", "us", "lower"},
	{"live.gen_lag_us_p99", "us", "lower"},
	{"obs.trace_overhead", "ratio", "lower"},
	{"go.alloc_mb", "MB", "lower"},
	{"go.gc_cycles", "count", "lower"},
}

// keepMetrics orders the outcome's metrics as specs does and drops any
// other. A per-layer metric the workload did not measure reads 0; a missing
// end-to-end metric is a failed check, since every workload must report it.
func keepMetrics(o *outcome, specs []metricSpec, zeroMissing bool) {
	have := make(map[string]metric, len(o.metrics))
	for _, m := range o.metrics {
		have[m.Name] = m
	}
	ordered := make([]metric, 0, len(specs))
	for _, spec := range specs {
		m, ok := have[spec.Name]
		if !ok {
			if !zeroMissing {
				o.fail("metric %s was not measured", spec.Name)
				continue
			}
			m = metric{spec.Name, 0, spec.Unit}
		}
		ordered = append(ordered, m)
	}
	o.metrics = ordered
}
