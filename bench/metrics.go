package main

import "fmt"

// metricDef names one reported metric. The tables below are the single
// source for what the benchmark prints; BENCHMARK.json repeats the
// end-to-end and per-layer tables (TestBenchmarkJSONMatchesTables keeps
// the two in step).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd are the metrics every workload reports with tracing off,
// each with the share of the parent's median by which it may worsen.
// A bound is three times the widest quartile spread the metric showed
// over ten seeds on any workload (README, "Steadiness"), rounded up.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.15},
	{"knn_p50_ms", "ms", "lower", 0.20},
	{"knn_p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.15},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// extras are end-to-end metrics only some workloads have. The
// BENCHMARK.json contract wants every end-to-end metric from every
// workload, so these stay out of it: they are printed in the report,
// written to -out and judged by -compare with the bounds given here.
var extras = []metricDef{
	{"range_p50_ms", "ms", "lower", 0.25},
	{"add_p50_ms", "ms", "lower", 0.25},
	{"add_p99_ms", "ms", "lower", 0.25},
	{"recover_s", "s", "lower", 0.15},
	{"disk_amp", "ratio", "lower", 0.15},
	{"gen_late_p99_ms", "ms", "lower", 0},
	{"failed_frac", "ratio", "lower", 0},
}

// perLayer are the metrics of the traced pass, <layer>.<metric> with
// the module names as layers. The kernel prices of colscan, core and
// transport are measured on every workload, on that workload's own
// data; everything else is 0 where the layer is not on the workload's
// path (emdserve off serve_http, persist and replica off ingest_mixed).
// They carry no bound.
var perLayer = []metricDef{
	{"emdserve.self_ms_p50", "ms", "lower", 0},
	{"emdserve.resp_bytes_per_knn", "B", "lower", 0},

	{"shardset.latency_ratio", "ratio", "lower", 0},
	{"shardset.refine_amp", "ratio", "lower", 0},
	{"shardset.retries", "count", "lower", 0},
	{"shardset.hedges", "count", "lower", 0},
	{"shardset.degraded_answers", "count", "lower", 0},
	{"shardset.failovers", "count", "lower", 0},

	{"gate.self_us_p50", "us", "lower", 0},
	{"gate.queued", "count", "lower", 0},
	{"gate.shed", "count", "lower", 0},
	{"gate.queue_wait_ms", "ms", "lower", 0},

	{"engine.total_ms_p50", "ms", "lower", 0},
	{"engine.snapshot_build_ms", "ms", "lower", 0},
	{"engine.snapshot_builds", "count", "lower", 0},
	{"engine.allocs_per_query", "count", "lower", 0},
	{"engine.bytes_per_query", "B", "lower", 0},

	{"search.pulled_per_query", "count", "lower", 0},
	{"search.refinements_per_query", "count", "lower", 0},
	{"search.refines_aborted_frac", "ratio", "higher", 0},
	{"search.warm_start_frac", "ratio", "higher", 0},
	{"search.overhead_ms_p50", "ms", "lower", 0},

	{"colscan.q_red_im_ns_per_item", "ns", "lower", 0},
	{"colscan.red_im_ns_per_item", "ns", "lower", 0},
	{"colscan.stage0_pruned_frac", "ratio", "higher", 0},
	{"colscan.share", "ratio", "lower", 0},

	{"core.red_emd_us_per_eval_fine", "us", "lower", 0},
	{"core.red_emd_us_per_eval_coarse", "us", "lower", 0},
	{"core.red_emd_evals_per_query", "count", "lower", 0},
	{"core.red_emd_pruned_frac", "ratio", "higher", 0},
	{"core.share", "ratio", "lower", 0},

	{"index.build_s", "s", "lower", 0},
	{"index.used_frac", "ratio", "higher", 0},
	{"index.nodes_per_query", "count", "lower", 0},
	{"index.dist_calls_per_query", "count", "lower", 0},
	{"index.pruned_frac", "ratio", "higher", 0},
	{"index.share", "ratio", "lower", 0},

	{"transport.exact_us_per_solve", "us", "lower", 0},
	{"transport.bounded_us_per_solve", "us", "lower", 0},
	{"transport.refine_us_per_refinement", "us", "lower", 0},
	{"transport.avg_rows", "count", "lower", 0},
	{"transport.avg_cols", "count", "lower", 0},
	{"transport.share", "ratio", "lower", 0},

	{"persist.wal_append_us_p50", "us", "lower", 0},
	{"persist.wal_bytes_per_add", "B", "lower", 0},
	{"persist.wal_appends_per_op", "count", "lower", 0},
	{"persist.checkpoint_ms", "ms", "lower", 0},
	{"persist.snapshot_bytes", "B", "lower", 0},
	{"persist.snapshot_load_ms", "ms", "lower", 0},
	{"persist.replay_records_per_s", "1/s", "higher", 0},

	{"replica.add_overhead_us", "us", "lower", 0},
	{"replica.lag_records_max", "count", "lower", 0},

	{"trace.closure_frac", "ratio", "higher", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// value is one measured metric as the result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload produced. The first four
// fields are the contract's result line; the rest goes to the report
// and to -out.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`

	Workload   string           `json:"workload,omitempty"`
	Seed       int64            `json:"seed,omitempty"`
	Trace      int              `json:"trace,omitempty"`
	GOMAXPROCS int              `json:"gomaxprocs,omitempty"`
	AnswersFNV string           `json:"answers_fnv,omitempty"`
	Extra      map[string]value `json:"extra,omitempty"`
	Samples    map[string]int   `json:"samples,omitempty"`
	Notes      []string         `json:"notes,omitempty"`
}

func newResult(sp spec, seed int64, trace int) *result {
	return &result{
		Correct:  true,
		Metrics:  map[string]value{},
		Workload: sp.Name, Seed: seed, Trace: trace,
		Extra:   map[string]value{},
		Samples: map[string]int{},
	}
}

// set stores v under name, taking the unit from the tables; samples
// (when > 0) is the number of timings v summarises.
func (r *result) set(name string, v float64, samples int) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range tab {
			if d.Name == name {
				r.Metrics[name] = value{v, d.Unit}
				if samples > 0 {
					r.Samples[name] = samples
				}
				return
			}
		}
	}
	for _, d := range extras {
		if d.Name == name {
			r.Extra[name] = value{v, d.Unit}
			if samples > 0 {
				r.Samples[name] = samples
			}
			return
		}
	}
	panic("bench: metric " + name + " is in no table")
}

// fail records a failed correctness check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}
