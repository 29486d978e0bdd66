package main

// The interaction map: every per-layer metric the traced run prints,
// with the end-to-end metric it should move, the workload it should
// move it on, and where it should stay flat. A claimed gain names its
// rows here before it is measured; BENCHMARK.json's per_layer list is
// held equal to this table by TestInteractionMapMatchesBenchmarkJSON.

type layerMetric struct {
	name, unit, better string
}

type layerRow struct {
	layer   string
	metrics []layerMetric
	moves   string // the end-to-end metrics it should move
	on      string // the workloads it should move them on
	flatOn  string // the workloads where it should stay flat
}

func m(name, unit, better string) layerMetric { return layerMetric{name, unit, better} }

// cpuLayers are the packages the CPU profile attributes samples to, in
// print order; cpu.other takes every sample that fits none of them.
var cpuLayers = []string{
	"orchestrator", "core", "pipeline", "patchserver", "sgx", "sgxprep", "kcrypto",
	"smm", "smmpatch", "mem", "machine", "kernel", "isa", "callgraph", "binmatch", "patch",
	"encoding_gob", "math_big", "runtime_gc", "other",
}

func cpuMetrics() []layerMetric {
	var out []layerMetric
	for _, l := range cpuLayers {
		out = append(out, m("cpu."+l, "share", "lower"))
	}
	return out
}

var interactionMap = []layerRow{
	{"orchestrator", []layerMetric{
		m("orchestrator.run_ms", "ms", "lower"),
		m("orchestrator.self_frac", "ratio", "lower"),
	}, "ops_per_s, op_ms_p90", "fleet_rollout", "patch_churn, guest_under_patch"},
	{"core", []layerMetric{
		m("core.fork_us_p50", "us", "lower"),
		m("core.applyall_ms_p50", "ms", "lower"),
		m("core.apply_ms_p50", "ms", "lower"),
		m("core.rollback_ms_p50", "ms", "lower"),
		m("core.close_us_p50", "us", "lower"),
	}, "ops_per_s, op_ms_p50", "fleet_rollout (fork, applyall), patch_churn (apply, rollback)", "-"},
	{"pipeline", []layerMetric{
		m("pipeline.smis_per_cve", "count", "lower"),
		m("pipeline.batches", "count", "lower"),
	}, "virt_pause_us_max, op_ms_p50", "fleet_rollout", "patch_churn (single path)"},
	{"patchserver", []layerMetric{
		m("patchserver.hello_us", "us", "lower"),
		m("patchserver.fetch_us", "us", "lower"),
		m("patchserver.bytes_per_fetch", "bytes", "lower"),
		m("patchserver.builds", "count", "lower"),
		m("patchserver.build_ms", "ms", "lower"),
	}, "ops_per_s, alloc_kb_per_op; setup_s (build)", "fleet_rollout; patch_churn (build)", "guest_under_patch ops"},
	{"sgx / sgxprep", []layerMetric{
		m("sgx.load_us", "us", "lower"),
		m("sgxprep.prepare_us", "us", "lower"),
		m("sgxprep.prepare_many_us", "us", "lower"),
		m("sgxprep.prepare_rollback_us", "us", "lower"),
	}, "ops_per_s, alloc_kb_per_op", "fleet_rollout (decode share), patch_churn", "guest_under_patch ops"},
	{"kcrypto", []layerMetric{
		m("kcrypto.dh_us", "us", "lower"),
		m("kcrypto.seal_us", "us", "lower"),
		m("kcrypto.open_us", "us", "lower"),
	}, "ops_per_s, op_ms_p50", "patch_churn", "fleet_rollout (derived sessions)"},
	{"smm / smmpatch", []layerMetric{
		m("smm.trigger_us", "us", "lower"),
		m("smm.entries_per_op", "count", "lower"),
		m("smmpatch.stage_us", "us", "lower"),
	}, "op_ms_p50; virt_* only if the model changes", "patch_churn", "-"},
	{"mem", []layerMetric{
		m("mem.fork_us", "us", "lower"),
		m("mem.private_kb_per_target", "KiB", "lower"),
		m("mem.read_ns", "ns", "lower"),
		m("mem.code_epochs_per_patch", "count", "lower"),
	}, "peak_rss_mb, ops_per_s; ops_per_s", "fleet_rollout; guest_under_patch", "patch_churn"},
	{"machine / kernel", []layerMetric{
		m("kernel.call_us_p50", "us", "lower"),
		m("kernel.call_us_p90", "us", "lower"),
		m("machine.pause_us", "us", "lower"),
	}, "ops_per_s, op_ms_p90", "guest_under_patch", "fleet_rollout, patch_churn"},
	{"isa", []layerMetric{
		m("isa.block_hit_ratio", "ratio", "higher"),
		m("isa.decodes_per_patch", "count", "lower"),
		m("isa.flushes_per_patch", "count", "lower"),
	}, "ops_per_s; op_ms_p90 (re-decode after a patch)", "guest_under_patch", "fleet_rollout, patch_churn"},
	{"build path", []layerMetric{
		m("kernel.build_ms", "ms", "lower"),
		m("callgraph.build_ms", "ms", "lower"),
		m("binmatch.diff_ms", "ms", "lower"),
		m("patch.build_ms", "ms", "lower"),
	}, "setup_s", "patch_churn, fleet_rollout", "every ops_per_s"},
	{"CPU profile", cpuMetrics(),
		"shows where a claimed saving sits, e.g. cpu.encoding_gob for a codec change or cpu.mem for a lock change",
		"the workload the claim names", "the others"},
	{"bench", []layerMetric{
		m("bench.host_ref_per_s", "1/s", "higher"),
		m("bench.raw_setup_s", "s", "lower"),
		m("bench.raw_ops_per_s", "1/s", "higher"),
		m("bench.raw_op_ms_p50", "ms", "lower"),
		m("bench.raw_op_ms_p90", "ms", "lower"),
		m("bench.lag_ms_p90", "ms", "lower"),
		m("bench.span_coverage", "ratio", "higher"),
		m("bench.trace_overhead_frac", "ratio", "lower"),
		m("bench.steal_frac", "ratio", "lower"),
	}, "none: these check the benchmark itself", "-", "-"},
}

// perLayerMetrics lists every per-layer metric in table order.
func perLayerMetrics() []layerMetric {
	var out []layerMetric
	for _, r := range interactionMap {
		out = append(out, r.metrics...)
	}
	return out
}
